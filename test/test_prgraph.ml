(* Tests for the graph substrate: configuration sets, connectivity
   matrix, weighted graph and clique detection, anchored on the paper's
   running example. *)

module Design_library = Prdesign.Design_library
module Conn_matrix = Prgraph.Conn_matrix
module Wgraph = Prgraph.Wgraph
module Clique = Prgraph.Clique
module Cfgset = Prgraph.Cfgset

let example = Design_library.running_example
let matrix = Conn_matrix.make example

(* Mode ids in the running example: A1=0 A2=1 A3=2 B1=3 B2=4 C1=5 C2=6 C3=7. *)
let a1 = 0
and a2 = 1
and a3 = 2
and b1 = 3
and b2 = 4
and c1 = 5
and _c2 = 6
and c3 = 7

let matrix_tests =
  [ Alcotest.test_case "dimensions" `Quick (fun () ->
        Alcotest.(check int) "configs" 5 (Conn_matrix.configurations matrix);
        Alcotest.(check int) "modes" 8 (Conn_matrix.modes matrix));
    Alcotest.test_case "membership matches the paper's matrix" `Quick
      (fun () ->
        Alcotest.(check bool) "A3 in c1" true (Conn_matrix.mem matrix ~config:0 ~mode:a3);
        Alcotest.(check bool) "B2 in c1" true (Conn_matrix.mem matrix ~config:0 ~mode:b2);
        Alcotest.(check bool) "C3 in c1" true (Conn_matrix.mem matrix ~config:0 ~mode:c3);
        Alcotest.(check bool) "A1 not in c1" false
          (Conn_matrix.mem matrix ~config:0 ~mode:a1));
    Alcotest.test_case "node weights match the paper" `Quick (fun () ->
        Alcotest.(check int) "A1" 2 (Conn_matrix.node_weight matrix a1);
        Alcotest.(check int) "A2" 1 (Conn_matrix.node_weight matrix a2);
        Alcotest.(check int) "B2" 4 (Conn_matrix.node_weight matrix b2);
        Alcotest.(check int) "C1" 2 (Conn_matrix.node_weight matrix c1));
    Alcotest.test_case "edge weights match the paper" `Quick (fun () ->
        Alcotest.(check int) "A1-B1" 1 (Conn_matrix.edge_weight matrix a1 b1);
        Alcotest.(check int) "B2-C3" 2 (Conn_matrix.edge_weight matrix b2 c3);
        Alcotest.(check int) "A3-B2" 2 (Conn_matrix.edge_weight matrix a3 b2);
        Alcotest.(check int) "A1-A2 never co-occur" 0
          (Conn_matrix.edge_weight matrix a1 a2));
    Alcotest.test_case "edge weight on the diagonal is the node weight" `Quick
      (fun () ->
        Alcotest.(check int) "B2" 4 (Conn_matrix.edge_weight matrix b2 b2));
    Alcotest.test_case "support of sets" `Quick (fun () ->
        Alcotest.(check int) "triple c1" 1
          (Conn_matrix.support matrix [ a3; b2; c3 ]);
        Alcotest.(check int) "unsupported clique" 0
          (Conn_matrix.support matrix [ a1; b2; c1 ]);
        Alcotest.(check int) "empty set = all configs" 5
          (Conn_matrix.support matrix []));
    Alcotest.test_case "config_modes" `Quick (fun () ->
        Alcotest.(check (list int)) "conf2" [ a1; b1; c1 ]
          (Conn_matrix.config_modes matrix 1));
    Alcotest.test_case "active_modes excludes unused" `Quick (fun () ->
        let receiver = Conn_matrix.make Design_library.video_receiver in
        Alcotest.(check bool) "R4 inactive" false
          (List.mem 5 (Conn_matrix.active_modes receiver));
        Alcotest.(check int) "13 active of 14" 13
          (List.length (Conn_matrix.active_modes receiver)));
    Alcotest.test_case "out-of-range rejected" `Quick (fun () ->
        (match Conn_matrix.mem matrix ~config:99 ~mode:0 with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "config range");
        match Conn_matrix.node_weight matrix 99 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "mode range") ]

let fresh_graph () =
  Wgraph.create ~n:8 ~weight:(fun i j -> Conn_matrix.edge_weight matrix i j)

let wgraph_tests =
  [ Alcotest.test_case "weights are symmetric samples" `Quick (fun () ->
        let g = fresh_graph () in
        Alcotest.(check int) "A3-B2" 2 (Wgraph.weight g a3 b2);
        Alcotest.(check int) "B2-A3" 2 (Wgraph.weight g b2 a3));
    Alcotest.test_case "link and linked" `Quick (fun () ->
        let g = fresh_graph () in
        Alcotest.(check bool) "initially unlinked" false (Wgraph.linked g a3 b2);
        Wgraph.link g a3 b2;
        Alcotest.(check bool) "linked" true (Wgraph.linked g a3 b2);
        Alcotest.(check bool) "symmetric" true (Wgraph.linked g b2 a3);
        Alcotest.(check int) "count" 1 (Wgraph.link_count g));
    Alcotest.test_case "double link rejected" `Quick (fun () ->
        let g = fresh_graph () in
        Wgraph.link g a3 b2;
        match Wgraph.link g b2 a3 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "self loop rejected" `Quick (fun () ->
        let g = fresh_graph () in
        match Wgraph.link g a1 a1 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "neighbours and common_neighbours" `Quick (fun () ->
        let g = fresh_graph () in
        Wgraph.link g a3 b2;
        Wgraph.link g a3 c3;
        Wgraph.link g b2 c3;
        Alcotest.(check (list int)) "neighbours of A3" [ b2; c3 ]
          (Wgraph.neighbours g a3);
        Alcotest.(check (list int)) "common of A3,B2" [ c3 ]
          (Wgraph.common_neighbours g a3 b2));
    Alcotest.test_case "min_internal_weight matches the paper" `Quick
      (fun () ->
        (* Paper Fig. 5(b): freq weight of {A3,B2,C3} is 1 via edge A3-C3. *)
        let g = fresh_graph () in
        Alcotest.(check int) "min edge" 1
          (Wgraph.min_internal_weight g [ a3; b2; c3 ]));
    Alcotest.test_case "min_internal_weight needs two nodes" `Quick (fun () ->
        let g = fresh_graph () in
        match Wgraph.min_internal_weight g [ a1 ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "positive_pairs_desc ordering" `Quick (fun () ->
        let g = fresh_graph () in
        let pairs = Wgraph.positive_pairs_desc g in
        Alcotest.(check int) "pair count" 13 (List.length pairs);
        (match pairs with
         | (i, j, w) :: _ ->
           Alcotest.(check int) "top weight" 2 w;
           Alcotest.(check bool) "i<j" true (i < j)
         | [] -> Alcotest.fail "no pairs");
        let weights = List.map (fun (_, _, w) -> w) pairs in
        let rec non_increasing = function
          | a :: (b :: _ as rest) -> a >= b && non_increasing rest
          | [ _ ] | [] -> true
        in
        Alcotest.(check bool) "sorted desc" true (non_increasing weights));
    Alcotest.test_case "negative weight rejected" `Quick (fun () ->
        match Wgraph.create ~n:2 ~weight:(fun _ _ -> -1) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument") ]

let clique_tests =
  [ Alcotest.test_case "new cliques after one link" `Quick (fun () ->
        let g = fresh_graph () in
        Wgraph.link g a3 b2;
        Alcotest.(check (list (list int))) "pair only" [ [ a3; b2 ] ]
          (Clique.new_cliques_after_link g a3 b2));
    Alcotest.test_case "closing a triangle finds it" `Quick (fun () ->
        let g = fresh_graph () in
        Wgraph.link g a3 b2;
        Wgraph.link g a3 c3;
        let cliques = Clique.new_cliques_after_link g a3 c3 in
        Alcotest.(check bool) "pair" true (List.mem [ a3; c3 ] cliques);
        Wgraph.link g b2 c3;
        let cliques = Clique.new_cliques_after_link g b2 c3 in
        Alcotest.(check bool) "triangle found" true
          (List.mem [ a3; b2; c3 ] cliques);
        Alcotest.(check bool) "pair found" true (List.mem [ b2; c3 ] cliques));
    Alcotest.test_case "keep predicate prunes" `Quick (fun () ->
        let g = fresh_graph () in
        Wgraph.link g a3 b2;
        Wgraph.link g a3 c3;
        Wgraph.link g b2 c3;
        let cliques =
          Clique.new_cliques_after_link g b2 c3 ~keep:(fun s ->
              List.length s <= 2)
        in
        Alcotest.(check (list (list int))) "pairs only" [ [ b2; c3 ] ] cliques);
    Alcotest.test_case "unlinked nodes rejected" `Quick (fun () ->
        let g = fresh_graph () in
        match Clique.new_cliques_after_link g a1 b1 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "limit truncates" `Quick (fun () ->
        let g = Wgraph.create ~n:5 ~weight:(fun _ _ -> 1) in
        let pairs = ref [] in
        for i = 0 to 4 do
          for j = i + 1 to 4 do
            pairs := (i, j) :: !pairs
          done
        done;
        List.iter (fun (i, j) -> Wgraph.link g i j) (List.rev !pairs);
        let last_i, last_j = List.hd !pairs in
        let cliques =
          Clique.new_cliques_after_link g last_i last_j ~limit:2
        in
        Alcotest.(check int) "limited" 2 (List.length cliques)) ]

(* Property: support is antitone in set inclusion. *)
let prop_support_antitone =
  let gen = QCheck2.Gen.(pair (list_size (1 -- 4) (0 -- 7)) (0 -- 7)) in
  QCheck2.Test.make ~name:"support antitone under extension" ~count:300 gen
    (fun (set, extra) ->
      let set = List.sort_uniq Int.compare set in
      let bigger = List.sort_uniq Int.compare (extra :: set) in
      Conn_matrix.support matrix bigger <= Conn_matrix.support matrix set)

(* Property: edge weight equals support of the pair. *)
let prop_edge_weight_is_pair_support =
  QCheck2.Test.make ~name:"edge weight = support of pair" ~count:300
    QCheck2.Gen.(pair (0 -- 7) (0 -- 7))
    (fun (i, j) ->
      i = j
      || Conn_matrix.edge_weight matrix i j
         = Conn_matrix.support matrix (List.sort_uniq Int.compare [ i; j ]))

(* Property: every [Cfgset] operation agrees with a [bool array] model,
   at sizes on both sides of each 63-bit word boundary. *)
let prop_cfgset_matches_model =
  let open QCheck2.Gen in
  let gen =
    let* n = oneof [ 0 -- 200; oneofl [ 62; 63; 64; 126; 127 ] ] in
    let* a = array_size (return n) bool in
    let* b = array_size (return n) bool in
    return (n, a, b)
  in
  QCheck2.Test.make ~name:"cfgset agrees with a bool-array model" ~count:300
    gen (fun (n, a, b) ->
      let of_model model =
        let s = Cfgset.create n in
        Array.iteri (fun c on -> if on then Cfgset.add s c) model;
        s
      in
      let elements model =
        List.filter (fun c -> model.(c)) (List.init n Fun.id)
      in
      let sa = of_model a and sb = of_model b in
      let both = Array.map2 ( && ) a b and either = Array.map2 ( || ) a b in
      let union = Array.copy sa in
      Cfgset.union_into union sb;
      let visited = ref [] in
      Cfgset.iter (fun c -> visited := c :: !visited) sa;
      Array.length sa = Cfgset.words_for n
      && Cfgset.words_for n = Int.max 1 ((n + 62) / 63)
      && List.for_all
           (fun c -> Cfgset.mem sa c = a.(c))
           (List.init n Fun.id)
      && Cfgset.elements sa = elements a
      && List.rev !visited = elements a
      && Cfgset.popcount sa = List.length (elements a)
      && Cfgset.elements (Cfgset.inter sa sb) = elements both
      && Cfgset.disjoint sa sb = (elements both = [])
      && Cfgset.elements union = elements either
      && Cfgset.elements sb = elements b)

let () =
  Alcotest.run "prgraph"
    [ ("conn-matrix", matrix_tests);
      ("wgraph", wgraph_tests);
      ("clique", clique_tests);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_cfgset_matches_model; prop_support_antitone;
            prop_edge_weight_is_pair_support ] ) ]
