type t = int array

let words_for configs = Int.max 1 ((configs + 62) / 63)
let create configs = Array.make (words_for configs) 0
let add s c = s.(c / 63) <- s.(c / 63) lor (1 lsl (c mod 63))
let mem s c = s.(c / 63) land (1 lsl (c mod 63)) <> 0
let inter a b = Array.map2 ( land ) a b

let disjoint a b =
  let n = Array.length a in
  let w = ref 0 in
  while !w < n && a.(!w) land b.(!w) = 0 do
    incr w
  done;
  !w = n

let popcount s =
  let count = ref 0 in
  Array.iter
    (fun word ->
      let x = ref word in
      while !x <> 0 do
        x := !x land (!x - 1);
        incr count
      done)
    s;
  !count

let union_into dst src =
  Array.iteri (fun w bits -> dst.(w) <- dst.(w) lor bits) src

let iter f s =
  Array.iteri
    (fun w word ->
      let x = ref word and c = ref (w * 63) in
      while !x <> 0 do
        if !x land 1 <> 0 then f !c;
        x := !x lsr 1;
        incr c
      done)
    s

let elements s =
  let acc = ref [] in
  iter (fun c -> acc := c :: !acc) s;
  List.rev !acc
