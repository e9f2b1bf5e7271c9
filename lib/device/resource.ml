type t = { clb : int; bram : int; dsp : int }

let zero = { clb = 0; bram = 0; dsp = 0 }

let make ?(bram = 0) ?(dsp = 0) clb =
  if clb < 0 || bram < 0 || dsp < 0 then
    invalid_arg "Resource.make: negative component";
  { clb; bram; dsp }

let add a b = { clb = a.clb + b.clb; bram = a.bram + b.bram; dsp = a.dsp + b.dsp }
let sub a b = { clb = a.clb - b.clb; bram = a.bram - b.bram; dsp = a.dsp - b.dsp }

let max a b =
  { clb = Int.max a.clb b.clb;
    bram = Int.max a.bram b.bram;
    dsp = Int.max a.dsp b.dsp }

let sum l = List.fold_left add zero l
let scale k a = { clb = k * a.clb; bram = k * a.bram; dsp = k * a.dsp }

let fits r ~within =
  r.clb <= within.clb && r.bram <= within.bram && r.dsp <= within.dsp

let dominates a b = fits b ~within:a
let is_zero r = r.clb = 0 && r.bram = 0 && r.dsp = 0
let equal a b = a.clb = b.clb && a.bram = b.bram && a.dsp = b.dsp

let compare a b =
  match Int.compare a.clb b.clb with
  | 0 -> (match Int.compare a.bram b.bram with
          | 0 -> Int.compare a.dsp b.dsp
          | c -> c)
  | c -> c

let total_primitives r = r.clb + r.bram + r.dsp

let pp ppf r =
  Format.fprintf ppf "{clb=%d; bram=%d; dsp=%d}" r.clb r.bram r.dsp

let to_string r = Format.asprintf "%a" pp r
