type t = {
  n : int;
  weights : int array array;
  adj : bool array array;
  mutable links : int;
}

let create ~n ~weight =
  if n < 0 then invalid_arg "Wgraph.create: negative size";
  let weights = Array.make_matrix n n 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let w = weight i j in
      if w < 0 then invalid_arg "Wgraph.create: negative weight";
      weights.(i).(j) <- w;
      weights.(j).(i) <- w
    done
  done;
  { n; weights; adj = Array.make_matrix n n false; links = 0 }

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Wgraph: node out of range"

let weight t i j =
  check t i;
  check t j;
  t.weights.(i).(j)

let linked t i j =
  check t i;
  check t j;
  t.adj.(i).(j)

let link t i j =
  check t i;
  check t j;
  if i = j then invalid_arg "Wgraph.link: self loop";
  if t.adj.(i).(j) then invalid_arg "Wgraph.link: already linked";
  t.adj.(i).(j) <- true;
  t.adj.(j).(i) <- true;
  t.links <- t.links + 1

let link_count t = t.links

let neighbours t i =
  check t i;
  let acc = ref [] in
  for j = t.n - 1 downto 0 do
    if t.adj.(i).(j) then acc := j :: !acc
  done;
  !acc

let common_neighbours t i j =
  check t i;
  check t j;
  let acc = ref [] in
  for k = t.n - 1 downto 0 do
    if t.adj.(i).(k) && t.adj.(j).(k) then acc := k :: !acc
  done;
  !acc

let min_internal_weight t nodes =
  let rec fold acc = function
    | [] -> acc
    | x :: rest ->
      let acc =
        List.fold_left (fun acc y -> min acc (weight t x y)) acc rest
      in
      fold acc rest
  in
  match nodes with
  | [] | [ _ ] ->
    invalid_arg "Wgraph.min_internal_weight: need at least two nodes"
  | _ -> fold max_int nodes

let positive_pairs_desc t =
  let acc = ref [] in
  for i = 0 to t.n - 1 do
    for j = i + 1 to t.n - 1 do
      let w = t.weights.(i).(j) in
      if w > 0 then acc := (i, j, w) :: !acc
    done
  done;
  List.sort
    (fun (i1, j1, w1) (i2, j2, w2) ->
      match Int.compare w2 w1 with
      | 0 -> (match Int.compare i1 i2 with 0 -> Int.compare j1 j2 | c -> c)
      | c -> c)
    !acc
