module Base_partition = Cluster.Base_partition

(* Signatures.

   Encoding: decimal integers with one-character structural separators
   ([,] between ints, [|] between members, [/] between groups, [#]
   before the static set). Unambiguous because the payloads are decimal
   digits only. *)

let encode_int_list buf sep xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf sep;
      Buffer.add_string buf (string_of_int x))
    xs

(* A member is identified by its mode content, which is what determines
   its resources and its activity — partition indices differ across
   candidate sets, mode sets do not. *)
let member_key (parts : Base_partition.t array) p =
  let buf = Buffer.create 16 in
  encode_int_list buf ',' parts.(p).Base_partition.modes;
  Buffer.contents buf

let canonical ~member_keys ~statics ~groups =
  let group_strings =
    List.sort String.compare
      (List.map
         (fun members ->
           String.concat "|"
             (List.sort String.compare (List.map member_keys members)))
         groups)
  in
  let static_string =
    String.concat "|" (List.sort String.compare (List.map member_keys statics))
  in
  String.concat "/" group_strings ^ "#" ^ static_string

let grouping_signature ~parts ~statics ~groups =
  canonical ~member_keys:(member_key parts) ~statics ~groups

let scheme_signature (s : Scheme.t) =
  let groups =
    List.init s.Scheme.region_count (fun r -> Scheme.region_members s r)
  in
  grouping_signature ~parts:s.Scheme.partitions
    ~statics:(Scheme.static_members s) ~groups
