module Design = Prdesign.Design
module Base_partition = Cluster.Base_partition
module Resource = Fpga.Resource

type placement = Static | Region of int

type t = {
  design : Design.t;
  partitions : Base_partition.t array;
  placement : placement array;
  region_count : int;
  analysis : Compatibility.t;
  members : int list array;
  frames : int array;
  resident : int array array;
}

(* Component-wise maximum over a region's members (paper eq. 2): only
   one partition is resident at a time. *)
let max_resources partitions members =
  List.fold_left
    (fun acc p -> Resource.max acc partitions.(p).Base_partition.resources)
    Resource.zero members

(* One pass over the placement builds the region member lists
   (ascending), one pass over (member, configuration) the resident
   table: the lowest active member of each region per configuration, -1
   when the region is idle. A second active member is a clash; clashes
   are counted from the member lists only on that error path. *)
let validate design partitions placement =
  let issues = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let region_count =
    Array.fold_left
      (fun acc -> function Static -> acc | Region r -> max acc (r + 1))
      0 placement
  in
  let members = Array.make region_count [] in
  let negative = ref [] in
  for p = Array.length placement - 1 downto 0 do
    match placement.(p) with
    | Static -> ()
    | Region r ->
      if r < 0 then negative := p :: !negative
      else members.(r) <- p :: members.(r)
  done;
  List.iter (problem "partition %d assigned a negative region") !negative;
  Array.iteri
    (fun r l -> if l = [] then problem "region %d is empty" r)
    members;
  let analysis = Compatibility.analyse design partitions in
  if not (Compatibility.covers_design analysis) then
    problem "some configuration modes have no providing partition";
  let configs = Design.configuration_count design in
  let resident = Array.make_matrix configs region_count (-1) in
  let clashes = ref [] in
  Array.iteri
    (fun r l ->
      List.iter
        (fun p ->
          for c = 0 to configs - 1 do
            if Compatibility.active analysis ~bp:p ~config:c then
              if resident.(c).(r) < 0 then resident.(c).(r) <- p
              else clashes := (r, c) :: !clashes
          done)
        l)
    members;
  List.iter
    (fun (r, c) ->
      let active =
        List.filter
          (fun p -> Compatibility.active analysis ~bp:p ~config:c)
          members.(r)
      in
      problem
        "region %d hosts %d simultaneously active partitions in \
         configuration %d"
        r (List.length active) c)
    (List.sort_uniq compare !clashes);
  (List.rev !issues, region_count, analysis, members, resident)

let make design assignment =
  let partitions = Array.of_list (List.map fst assignment) in
  let placement = Array.of_list (List.map snd assignment) in
  match validate design partitions placement with
  | [], region_count, analysis, members, resident ->
    let frames =
      Array.map
        (fun l -> Fpga.Tile.frames_of_resources (max_resources partitions l))
        members
    in
    Ok
      { design;
        partitions;
        placement;
        region_count;
        analysis;
        members;
        frames;
        resident }
  | issues, _, _, _, _ -> Error issues

let make_exn design assignment =
  match make design assignment with
  | Ok t -> t
  | Error issues -> invalid_arg ("Scheme.make: " ^ String.concat "; " issues)

let check_region t r =
  if r < 0 || r >= t.region_count then
    invalid_arg "Scheme: region index out of range"

let check_config t c =
  if c < 0 || c >= Array.length t.resident then
    invalid_arg "Scheme: configuration index out of range"

let region_members t r =
  check_region t r;
  t.members.(r)

let static_members t =
  let acc = ref [] in
  Array.iteri
    (fun p -> function Static -> acc := p :: !acc | Region _ -> ())
    t.placement;
  List.rev !acc

let region_resources t r = max_resources t.partitions (region_members t r)

let region_frames t r =
  check_region t r;
  t.frames.(r)

let static_resources t =
  List.fold_left
    (fun acc p -> Resource.add acc t.partitions.(p).Base_partition.resources)
    t.design.Design.static_overhead (static_members t)

let reconfigurable_resources t =
  let acc = ref Resource.zero in
  for r = 0 to t.region_count - 1 do
    acc := Resource.add !acc (Fpga.Tile.quantize (region_resources t r))
  done;
  !acc

let total_resources t =
  Resource.add (reconfigurable_resources t) (static_resources t)

let active_partition t ~config ~region =
  check_region t region;
  check_config t config;
  let p = t.resident.(config).(region) in
  if p < 0 then None else Some p

let initial_resident t ~initial r =
  check_region t r;
  check_config t initial;
  let p = t.resident.(initial).(r) in
  if p >= 0 then p else List.hd t.members.(r)

(* Reference schemes. *)

let single_region design =
  let matrix = Prgraph.Conn_matrix.make design in
  let clusters =
    List.sort_uniq compare
      (List.init (Design.configuration_count design) (fun c ->
           Design.config_mode_ids design c))
  in
  let assignment =
    List.map
      (fun modes ->
        let freq = Prgraph.Conn_matrix.support matrix modes in
        (Base_partition.make design ~modes ~freq, Region 0))
      clusters
  in
  make_exn design assignment

let one_module_per_region design =
  let matrix = Prgraph.Conn_matrix.make design in
  let assignment =
    List.filter_map
      (fun mode ->
        let freq = Prgraph.Conn_matrix.node_weight matrix mode in
        if freq = 0 then None
        else
          Some
            ( Base_partition.make design ~modes:[ mode ] ~freq,
              Region (Design.module_of_mode design mode) ))
      (Design.all_mode_ids design)
  in
  (* Region ids must be dense: re-number the used modules. *)
  let used_modules =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (_, p) -> match p with Region r -> Some r | Static -> None)
         assignment)
  in
  let renumber r =
    let rec index i = function
      | [] -> invalid_arg "Scheme.one_module_per_region: unknown module"
      | m :: rest -> if m = r then i else index (i + 1) rest
    in
    index 0 used_modules
  in
  make_exn design
    (List.map
       (fun (bp, p) ->
         match p with
         | Region r -> (bp, Region (renumber r))
         | Static -> (bp, Static))
       assignment)

let fully_static design =
  let matrix = Prgraph.Conn_matrix.make design in
  let assignment =
    List.filter_map
      (fun mode ->
        let freq = Prgraph.Conn_matrix.node_weight matrix mode in
        if freq = 0 then None
        else Some (Base_partition.make design ~modes:[ mode ] ~freq, Static))
      (Design.all_mode_ids design)
  in
  make_exn design assignment

let describe t =
  let buf = Buffer.create 256 in
  let bp_label p = Base_partition.label t.design t.partitions.(p) in
  let statics = static_members t in
  if statics <> [] then
    Buffer.add_string buf
      (Printf.sprintf "static: %s\n"
         (String.concat ", " (List.map bp_label statics)));
  for r = 0 to t.region_count - 1 do
    let res = region_resources t r in
    Buffer.add_string buf
      (Printf.sprintf "PRR%d: %s  (area %s, %d frames)\n" (r + 1)
         (String.concat ", " (List.map bp_label (region_members t r)))
         (Resource.to_string res) (region_frames t r))
  done;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (describe t)
