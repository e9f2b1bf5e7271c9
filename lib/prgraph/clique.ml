let new_cliques_after_link ?(keep = fun _ -> true) ?(limit = 100_000) g u v =
  if not (Wgraph.linked g u v) then
    invalid_arg "Clique.new_cliques_after_link: nodes are not linked";
  let base = if u < v then [ u; v ] else [ v; u ] in
  let candidates = Wgraph.common_neighbours g u v in
  let results = ref [] in
  let count = ref 0 in
  let add clique =
    results := List.sort Int.compare clique :: !results;
    incr count
  in
  (* Extend [clique] (sorted) with candidates drawn in ascending order so
     each clique is produced exactly once. Exploration stops outright at
     [limit]: past it nothing more would be recorded, and on dense
     co-occurrence graphs (hundreds of mutually linked modes) the
     enumeration tree is exponentially larger than the recorded prefix. *)
  let rec extend clique = function
    | [] -> ()
    | _ when !count >= limit -> ()
    | c :: rest ->
      if
        List.for_all (fun x -> Wgraph.linked g x c) clique
        && keep (clique @ [ c ])
      then begin
        let bigger = clique @ [ c ] in
        add bigger;
        extend bigger rest
      end;
      extend clique rest
  in
  if keep base then begin
    add base;
    if !count < limit then extend base candidates
  end;
  List.rev !results
