type header = {
  design : string;
  variant : string;
  region : int;
  far : int;
  frames : int;
}

type t = { header : header; payload : bytes; crc : int32 }

let sync_word = 0xAA995566l

let far_of_origin ~row ~major =
  if row < 0 || major < 0 then
    invalid_arg "Bitstream.far_of_origin: negative field";
  (row lsl 15) lor (major lsl 7)

let max_string = 64

(* A tiny deterministic byte stream seeded from the header text, standing
   in for real mask data: byte [i] is bits 16..23 of the [i+1]-th state of
   the LCG [x -> a*x + c]. Four interleaved lanes produce one 4-byte group
   per step: lane [k] holds the state of byte [i + k] and jumps four
   states at once with the composed map [x -> a^4*x + c*(1+a+a^2+a^3)],
   exact in OCaml's wrapping [int] because composing affine maps is a ring
   identity. *)
let lcg_a = 1103515245
let lcg_c = 12345
let jump_a = lcg_a * lcg_a * lcg_a * lcg_a
let jump_c = lcg_c * (1 + lcg_a + (lcg_a * lcg_a) + (lcg_a * lcg_a * lcg_a))

let fill_payload header payload =
  let seed =
    Int32.to_int (Crc32.string_digest (header.design ^ "/" ^ header.variant))
    land 0xFFFFFF
  in
  let step x = (x * lcg_a) + lcg_c and jump x = (x * jump_a) + jump_c in
  let s0 = step (seed lor 1) in
  let s1 = step s0 in
  let s2 = step s1 in
  let s3 = step s2 in
  let s0 = ref s0 and s1 = ref s1 and s2 = ref s2 and s3 = ref s3 in
  let len = Bytes.length payload in
  let i = ref 0 in
  while !i + 4 <= len do
    Bytes.set_int32_le payload !i
      (Int32.of_int
         ((!s0 lsr 16) land 0xFF
         lor ((!s1 lsr 8) land 0xFF00)
         lor (!s2 land 0xFF0000)
         lor ((!s3 lsl 8) land 0xFF000000)));
    s0 := jump !s0;
    s1 := jump !s1;
    s2 := jump !s2;
    s3 := jump !s3;
    i := !i + 4
  done;
  (* Lane [k] now holds the state of byte [!i + k]. *)
  let lanes = [| !s0; !s1; !s2 |] in
  for k = 0 to len - !i - 1 do
    Bytes.set payload (!i + k) (Char.chr ((lanes.(k) lsr 16) land 0xFF))
  done

let check_header h =
  if h.frames < 0 then invalid_arg "Bitstream: negative frame count";
  if h.region < 0 || h.region > 0xFFFF then
    invalid_arg "Bitstream: region id out of range";
  if h.far < 0 then invalid_arg "Bitstream: negative frame address";
  if String.length h.design > max_string then
    invalid_arg "Bitstream: design name too long";
  if String.length h.variant > max_string then
    invalid_arg "Bitstream: variant name too long"

(* Header encoding: sync(4) | far(4) | frames(4) | region(2) |
   len(design)(1) design | len(variant)(1) variant | payload | crc(4). *)
let header_bytes h =
  let buf = Buffer.create 64 in
  let word32 v =
    for shift = 24 downto 0 do
      if shift mod 8 = 0 then
        Buffer.add_char buf
          (Char.chr (Int32.to_int (Int32.shift_right_logical v shift) land 0xFF))
    done
  in
  word32 sync_word;
  word32 (Int32.of_int h.far);
  word32 (Int32.of_int h.frames);
  Buffer.add_char buf (Char.chr (h.region lsr 8));
  Buffer.add_char buf (Char.chr (h.region land 0xFF));
  Buffer.add_char buf (Char.chr (String.length h.design));
  Buffer.add_string buf h.design;
  Buffer.add_char buf (Char.chr (String.length h.variant));
  Buffer.add_string buf h.variant;
  Buffer.to_bytes buf

let payload_bytes t = t.header.frames * Fpga.Frame.bytes_per_frame

let generate header =
  check_header header;
  let payload = Bytes.create (header.frames * Fpga.Frame.bytes_per_frame) in
  fill_payload header payload;
  let crc =
    let head = header_bytes header in
    Crc32.finalise
      (Crc32.update
         (Crc32.update Crc32.initial head ~pos:0 ~len:(Bytes.length head))
         payload ~pos:0 ~len:(Bytes.length payload))
  in
  { header; payload; crc }

let serialise t =
  let head = header_bytes t.header in
  let total = Bytes.length head + Bytes.length t.payload + 4 in
  let out = Bytes.create total in
  Bytes.blit head 0 out 0 (Bytes.length head);
  Bytes.blit t.payload 0 out (Bytes.length head) (Bytes.length t.payload);
  let crc_pos = total - 4 in
  for shift = 0 to 3 do
    Bytes.set out
      (crc_pos + shift)
      (Char.chr
         (Int32.to_int
            (Int32.shift_right_logical t.crc ((3 - shift) * 8))
          land 0xFF))
  done;
  out

(* Same layout as [header_bytes] and [serialise], without building them. *)
let size_bytes t =
  14 + 1 + String.length t.header.design + 1 + String.length t.header.variant
  + Bytes.length t.payload + 4

let read_u32 buffer pos =
  let byte i = Int32.of_int (Char.code (Bytes.get buffer (pos + i))) in
  Int32.logor
    (Int32.shift_left (byte 0) 24)
    (Int32.logor
       (Int32.shift_left (byte 1) 16)
       (Int32.logor (Int32.shift_left (byte 2) 8) (byte 3)))

let parse buffer =
  let len = Bytes.length buffer in
  if len < 20 then Error "too short for a bitstream"
  else if read_u32 buffer 0 <> sync_word then Error "bad sync word"
  else begin
    let far = Int32.to_int (read_u32 buffer 4) in
    let frames = Int32.to_int (read_u32 buffer 8) in
    if frames < 0 || far < 0 then Error "corrupt header fields"
    else begin
      let region =
        (Char.code (Bytes.get buffer 12) lsl 8) lor Char.code (Bytes.get buffer 13)
      in
      let pos = ref 14 in
      let read_string () =
        if !pos >= len then Error "truncated string"
        else begin
          let n = Char.code (Bytes.get buffer !pos) in
          if !pos + 1 + n > len then Error "truncated string"
          else begin
            let s = Bytes.sub_string buffer (!pos + 1) n in
            pos := !pos + 1 + n;
            Ok s
          end
        end
      in
      match read_string () with
      | Error e -> Error e
      | Ok design ->
        (match read_string () with
         | Error e -> Error e
         | Ok variant ->
           let payload_len = frames * Fpga.Frame.bytes_per_frame in
           let expected = !pos + payload_len + 4 in
           if len <> expected then
             Error
               (Printf.sprintf "length mismatch: %d bytes, expected %d" len
                  expected)
           else begin
             let stored_crc = read_u32 buffer (len - 4) in
             let computed =
               Crc32.finalise
                 (Crc32.update Crc32.initial buffer ~pos:0 ~len:(len - 4))
             in
             if stored_crc <> computed then Error "CRC mismatch"
             else begin
               let header = { design; variant; region; far; frames } in
               let payload = Bytes.sub buffer !pos payload_len in
               Ok { header; payload; crc = stored_crc }
             end
           end)
    end
  end
