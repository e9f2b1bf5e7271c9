module Resource = Fpga.Resource
module Tile = Fpga.Tile
module Cfgset = Prgraph.Cfgset

(* Flat per-node arrays, so scoring a pair allocates nothing and calls
   nothing outside this module. *)
type t = {
  words : int;
  mask : int array;  (* node k's Cfgset words at [k * words] *)
  acts : int array;
  conflicts : int array;
  clb : int array;  (* tiles of each kind *)
  bram : int array;
  dsp : int array;
  frames : int array;
}

let clb_prims = Tile.primitives_per_tile Clb
let bram_prims = Tile.primitives_per_tile Bram
let dsp_prims = Tile.primitives_per_tile Dsp
let clb_frames = Tile.frames_per_tile Clb
let bram_frames = Tile.frames_per_tile Bram
let dsp_frames = Tile.frames_per_tile Dsp

let[@inline] frames_of_tiles c b d =
  (c * clb_frames) + (b * bram_frames) + (d * dsp_frames)

let create ~words n =
  { words;
    mask = Array.make (n * words) 0;
    acts = Array.make n 0;
    conflicts = Array.make n 0;
    clb = Array.make n 0;
    bram = Array.make n 0;
    dsp = Array.make n 0;
    frames = Array.make n 0 }

let set_leaf t k ~mask ~(resources : Resource.t) =
  Array.blit mask 0 t.mask (k * t.words) t.words;
  t.acts.(k) <- Cfgset.popcount mask;
  t.conflicts.(k) <- 0;
  let c = Tile.tiles_for Clb resources.clb
  and b = Tile.tiles_for Bram resources.bram
  and d = Tile.tiles_for Dsp resources.dsp in
  t.clb.(k) <- c;
  t.bram.(k) <- b;
  t.dsp.(k) <- d;
  t.frames.(k) <- frames_of_tiles c b d

let leaves ~words ~masks ~resources =
  let t = create ~words (Array.length resources) in
  Array.iteri (fun k mask -> set_leaf t k ~mask ~resources:resources.(k)) masks;
  t

let size t = Array.length t.acts
let words t = t.words

let copy t =
  { t with
    mask = Array.copy t.mask;
    acts = Array.copy t.acts;
    conflicts = Array.copy t.conflicts;
    clb = Array.copy t.clb;
    bram = Array.copy t.bram;
    dsp = Array.copy t.dsp;
    frames = Array.copy t.frames }

let copy_node ~src p ~dst k =
  Array.blit src.mask (p * src.words) dst.mask (k * dst.words) dst.words;
  dst.acts.(k) <- src.acts.(p);
  dst.conflicts.(k) <- src.conflicts.(p);
  dst.clb.(k) <- src.clb.(p);
  dst.bram.(k) <- src.bram.(p);
  dst.dsp.(k) <- src.dsp.(p);
  dst.frames.(k) <- src.frames.(p)

let absorb ~dst a ~src b =
  let words = dst.words in
  for w = 0 to words - 1 do
    dst.mask.((a * words) + w) <-
      dst.mask.((a * words) + w) lor src.mask.((b * words) + w)
  done;
  dst.conflicts.(a) <-
    dst.conflicts.(a) + src.conflicts.(b) + (dst.acts.(a) * src.acts.(b));
  dst.acts.(a) <- dst.acts.(a) + src.acts.(b);
  let c = Int.max dst.clb.(a) src.clb.(b)
  and bm = Int.max dst.bram.(a) src.bram.(b)
  and d = Int.max dst.dsp.(a) src.dsp.(b) in
  dst.clb.(a) <- c;
  dst.bram.(a) <- bm;
  dst.dsp.(a) <- d;
  dst.frames.(a) <- frames_of_tiles c bm d

let[@inline] disjoint t a b =
  let words = t.words in
  if words = 1 then t.mask.(a) land t.mask.(b) = 0
  else begin
    let ok = ref true and w = ref 0 in
    while !ok && !w < words do
      if t.mask.((a * words) + !w) land t.mask.((b * words) + !w) <> 0 then
        ok := false;
      incr w
    done;
    !ok
  end

let mask t k = Array.sub t.mask (k * t.words) t.words
let conflicts t k = t.conflicts.(k)
let frames t k = t.frames.(k)

let quantized t k =
  { Resource.clb = t.clb.(k) * clb_prims;
    bram = t.bram.(k) * bram_prims;
    dsp = t.dsp.(k) * dsp_prims }

let merged_quantized t a b =
  { Resource.clb = Int.max t.clb.(a) t.clb.(b) * clb_prims;
    bram = Int.max t.bram.(a) t.bram.(b) * bram_prims;
    dsp = Int.max t.dsp.(a) t.dsp.(b) * dsp_prims }

let[@inline] merged_frames t a b =
  frames_of_tiles
    (Int.max t.clb.(a) t.clb.(b))
    (Int.max t.bram.(a) t.bram.(b))
    (Int.max t.dsp.(a) t.dsp.(b))

let merged_conflicts t a b =
  t.conflicts.(a) + t.conflicts.(b) + (t.acts.(a) * t.acts.(b))

let[@inline] merge_dtime t a b =
  (merged_frames t a b
   * (t.conflicts.(a) + t.conflicts.(b) + (t.acts.(a) * t.acts.(b))))
  - (t.frames.(a) * t.conflicts.(a))
  - (t.frames.(b) * t.conflicts.(b))

(* Count the admissible pairs, then score them into arrays of that size
   in ascending (i, j). *)
let pairs t ~alive ~cap_clb ~cap_bram ~cap_dsp =
  let n = size t in
  let admissible i j =
    alive.(j)
    && disjoint t i j
    && float_of_int (Int.max t.clb.(i) t.clb.(j) * clb_prims) <= cap_clb
    && float_of_int (Int.max t.bram.(i) t.bram.(j) * bram_prims) <= cap_bram
    && float_of_int (Int.max t.dsp.(i) t.dsp.(j) * dsp_prims) <= cap_dsp
  in
  let npairs = ref 0 in
  for i = 0 to n - 1 do
    if alive.(i) then
      for j = i + 1 to n - 1 do
        if admissible i j then incr npairs
      done
  done;
  let dtime = Array.make !npairs 0
  and saved = Array.make !npairs 0
  and ij = Array.make !npairs 0 in
  let x = ref 0 in
  for i = 0 to n - 1 do
    if alive.(i) then
      for j = i + 1 to n - 1 do
        if admissible i j then begin
          dtime.(!x) <- merge_dtime t i j;
          saved.(!x) <- t.frames.(i) + t.frames.(j) - merged_frames t i j;
          ij.(!x) <- (i * n) + j;
          incr x
        end
      done
  done;
  (dtime, saved, ij)

let cross t ~weights ~configs a b =
  let active k = Array.of_list (Cfgset.elements (mask t k)) in
  let aa = active a and ba = active b in
  let acc = ref 0. in
  for i = 0 to Array.length aa - 1 do
    let row = aa.(i) * configs in
    for j = 0 to Array.length ba - 1 do
      acc := !acc +. weights.(row + ba.(j))
    done
  done;
  !acc
