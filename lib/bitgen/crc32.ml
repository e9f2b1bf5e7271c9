let polynomial = 0xEDB88320

(* Slice-by-8 tables on native ints, flat: entry [k * 256 + n] is the CRC
   contribution of byte [n] followed by [k] zero bytes. Table 0 is the
   classic bytewise table. Built eagerly at module initialisation: a
   [lazy] forced concurrently from two domains raises [Lazy.Undefined]. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then polynomial lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let initial = 0xFFFFFFFFl
let finalise crc = Int32.logxor crc 0xFFFFFFFFl

(* An unsigned 32-bit little-endian word as a native int. [Int64.to_int]
   is not an alternative for a 64-bit read: it drops bit 63. *)
let word buffer i = Int32.to_int (Bytes.get_int32_le buffer i) land 0xFFFFFFFF

let update crc buffer ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buffer then
    invalid_arg "Crc32.update: slice out of range";
  (* Every table index below is at most 7 * 256 + 255, inside [tables]. *)
  let t i = Array.unsafe_get tables i in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF) in
  let i = ref pos in
  let last8 = pos + len - 8 in
  while !i <= last8 do
    let lo = !c lxor word buffer !i and hi = word buffer (!i + 4) in
    c :=
      t (1792 + (lo land 0xFF))
      lxor t (1536 + ((lo lsr 8) land 0xFF))
      lxor t (1280 + ((lo lsr 16) land 0xFF))
      lxor t (1024 + (lo lsr 24))
      lxor t (768 + (hi land 0xFF))
      lxor t (512 + ((hi lsr 8) land 0xFF))
      lxor t (256 + ((hi lsr 16) land 0xFF))
      lxor t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c := t ((!c lxor Char.code (Bytes.get buffer j)) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int !c

let digest buffer =
  finalise (update initial buffer ~pos:0 ~len:(Bytes.length buffer))

(* [update] only reads its buffer, so the string need not be copied. *)
let string_digest s = digest (Bytes.unsafe_of_string s)

let hex_digest s = Printf.sprintf "%08lx" (string_digest s)
