(* Summary statistics and the result line. *)

let now = Unix.gettimeofday

(* Wall time of [f ()] in ms, with its result. *)
let time_ms f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [p] in [0, 100]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let pos = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile 50. xs

(* The tail: the highest whole percentile (at most 99) that leaves at
   least ten samples above it. Fewer than 20 samples leave no such
   percentile at or above the median; the maximum is reported then,
   labelled p100. Returns (percentile, value). *)
let tail xs =
  let n = List.length xs in
  let beyond p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  let rec search p =
    if p < 50 then None
    else if beyond (float_of_int p) >= 10 then Some p
    else search (p - 1)
  in
  match search 99 with
  | Some p -> (float_of_int p, percentile (float_of_int p) xs)
  | None -> (100., percentile 100. xs)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio num den = if den = 0 then nan else float_of_int num /. float_of_int den

(* Major-heap high-water mark of this process, in MB. *)
let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

(* The last line of standard output. *)
let print_result ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_number m.value) m.unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed body
