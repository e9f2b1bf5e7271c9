(* Tests for the bitstream substrate: CRC-32, bitstream generation,
   serialisation/parsing, and the repository. *)

module Crc32 = Bitgen.Crc32
module Bitstream = Bitgen.Bitstream
module Repository = Bitgen.Repository

let crc_tests =
  [ Alcotest.test_case "known vector: \"123456789\"" `Quick (fun () ->
        (* The canonical CRC-32 check value. *)
        Alcotest.(check int32) "cbf43926" 0xCBF43926l
          (Crc32.string_digest "123456789"));
    Alcotest.test_case "empty buffer" `Quick (fun () ->
        Alcotest.(check int32) "zero" 0l (Crc32.string_digest ""));
    Alcotest.test_case "incremental equals one-shot" `Quick (fun () ->
        let data = Bytes.of_string "partial reconfiguration" in
        let split = 7 in
        let crc =
          Crc32.finalise
            (Crc32.update
               (Crc32.update Crc32.initial data ~pos:0 ~len:split)
               data ~pos:split
               ~len:(Bytes.length data - split))
        in
        Alcotest.(check int32) "same" (Crc32.digest data) crc);
    Alcotest.test_case "sensitive to single-bit change" `Quick (fun () ->
        Alcotest.(check bool) "differs" true
          (Crc32.string_digest "abc" <> Crc32.string_digest "abd"));
    Alcotest.test_case "slice bounds checked" `Quick (fun () ->
        match Crc32.update Crc32.initial (Bytes.create 4) ~pos:2 ~len:5 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument") ]

let header frames =
  { Bitstream.design = "demo";
    variant = "{A1, B2}";
    region = 3;
    far = Bitstream.far_of_origin ~row:2 ~major:17;
    frames }

let bitstream_tests =
  [ Alcotest.test_case "payload size is frames x 164" `Quick (fun () ->
        let b = Bitstream.generate (header 10) in
        Alcotest.(check int) "payload" 1640 (Bitstream.payload_bytes b);
        Alcotest.(check int) "payload bytes" 1640
          (Bytes.length b.Bitstream.payload));
    Alcotest.test_case "generation is deterministic" `Quick (fun () ->
        let a = Bitstream.serialise (Bitstream.generate (header 5)) in
        let b = Bitstream.serialise (Bitstream.generate (header 5)) in
        Alcotest.(check bool) "identical" true (Bytes.equal a b));
    Alcotest.test_case "different variants differ" `Quick (fun () ->
        let other = { (header 5) with Bitstream.variant = "{A2}" } in
        Alcotest.(check bool) "differ" true
          (not
             (Bytes.equal
                (Bitstream.serialise (Bitstream.generate (header 5)))
                (Bitstream.serialise (Bitstream.generate other)))));
    Alcotest.test_case "round trip" `Quick (fun () ->
        let original = Bitstream.generate (header 8) in
        match Bitstream.parse (Bitstream.serialise original) with
        | Ok parsed ->
          Alcotest.(check bool) "headers equal" true
            (parsed.Bitstream.header = original.Bitstream.header);
          Alcotest.(check bool) "payload equal" true
            (Bytes.equal parsed.Bitstream.payload original.Bitstream.payload)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "zero-frame bitstream round trips" `Quick (fun () ->
        let original = Bitstream.generate (header 0) in
        Alcotest.(check bool) "ok" true
          (Result.is_ok (Bitstream.parse (Bitstream.serialise original))));
    Alcotest.test_case "corruption detected anywhere" `Quick (fun () ->
        let serialised = Bitstream.serialise (Bitstream.generate (header 6)) in
        List.iter
          (fun pos ->
            let corrupted = Bytes.copy serialised in
            Bytes.set corrupted pos
              (Char.chr (Char.code (Bytes.get corrupted pos) lxor 0x40));
            Alcotest.(check bool)
              (Printf.sprintf "byte %d" pos)
              true
              (Result.is_error (Bitstream.parse corrupted)))
          [ 0; 5; 14; 40; Bytes.length serialised - 1 ]);
    Alcotest.test_case "truncation detected" `Quick (fun () ->
        let serialised = Bitstream.serialise (Bitstream.generate (header 6)) in
        let truncated = Bytes.sub serialised 0 (Bytes.length serialised - 3) in
        Alcotest.(check bool) "error" true
          (Result.is_error (Bitstream.parse truncated)));
    Alcotest.test_case "far encoding" `Quick (fun () ->
        Alcotest.(check int) "packed"
          ((2 lsl 15) lor (17 lsl 7))
          (Bitstream.far_of_origin ~row:2 ~major:17);
        match Bitstream.far_of_origin ~row:(-1) ~major:0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "invalid headers rejected" `Quick (fun () ->
        let invalid f =
          match f () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"
        in
        invalid (fun () ->
            Bitstream.generate { (header 1) with Bitstream.frames = -1 });
        invalid (fun () ->
            Bitstream.generate { (header 1) with Bitstream.region = 70_000 });
        invalid (fun () ->
            Bitstream.generate
              { (header 1) with Bitstream.design = String.make 80 'x' })) ]

let repository_tests =
  [ Alcotest.test_case "one entry per hosted cluster" `Quick (fun () ->
        let d = Prdesign.Design_library.running_example in
        let s = Prcore.Scheme.one_module_per_region d in
        let device = Fpga.Device.find_exn "LX30" in
        let repo = Repository.build ~device s in
        (* 8 modes grouped in 3 regions: 8 partial bitstreams. *)
        Alcotest.(check int) "entries" 8
          (List.length repo.Repository.entries));
    Alcotest.test_case "partial frames equal region frames" `Quick (fun () ->
        let d = Prdesign.Design_library.running_example in
        let s = Prcore.Scheme.one_module_per_region d in
        let repo = Repository.build ~device:(Fpga.Device.find_exn "LX30") s in
        List.iter
          (fun (e : Repository.entry) ->
            Alcotest.(check int) e.label
              (Prcore.Scheme.region_frames s e.region)
              e.bitstream.Bitstream.header.frames)
          repo.Repository.entries);
    Alcotest.test_case "full bitstream covers the device" `Quick (fun () ->
        let d = Prdesign.Design_library.running_example in
        let s = Prcore.Scheme.one_module_per_region d in
        let device = Fpga.Device.find_exn "LX30" in
        let repo = Repository.build ~device s in
        Alcotest.(check int) "frames" (Fpga.Device.total_frames device)
          repo.Repository.full.Bitstream.header.frames);
    Alcotest.test_case "placement rectangles drive the FAR" `Quick (fun () ->
        let d = Prdesign.Design_library.running_example in
        let s = Prcore.Scheme.one_module_per_region d in
        let placement =
          [| Some { Floorplan.Placer.row = 1; height = 1; col = 5; width = 4 };
             Some { Floorplan.Placer.row = 2; height = 1; col = 9; width = 4 };
             Some { Floorplan.Placer.row = 0; height = 1; col = 0; width = 4 } |]
        in
        let repo =
          Repository.build ~placement ~device:(Fpga.Device.find_exn "LX30") s
        in
        (match Repository.find repo ~region:0 ~partition:0 with
         | Some e ->
           Alcotest.(check int) "far"
             (Bitstream.far_of_origin ~row:1 ~major:5)
             e.bitstream.Bitstream.header.far
         | None -> Alcotest.fail "entry missing"));
    Alcotest.test_case "totals add up" `Quick (fun () ->
        let d = Prdesign.Design_library.running_example in
        let s = Prcore.Scheme.one_module_per_region d in
        let repo = Repository.build ~device:(Fpga.Device.find_exn "LX30") s in
        Alcotest.(check int) "total = partial + full"
          (Repository.total_bytes repo)
          (Repository.partial_bytes repo
           + Bitstream.size_bytes repo.Repository.full));
    Alcotest.test_case "every serialised entry parses back" `Quick (fun () ->
        let d = Prdesign.Design_library.video_receiver in
        let s = Prcore.Scheme.one_module_per_region d in
        let repo = Repository.build ~device:(Fpga.Device.find_exn "FX130T") s in
        List.iter
          (fun (e : Repository.entry) ->
            Alcotest.(check bool) e.label true
              (Result.is_ok
                 (Bitstream.parse (Bitstream.serialise e.bitstream))))
          repo.Repository.entries);
    Alcotest.test_case "load_seconds matches the ICAP model" `Quick (fun () ->
        let d = Prdesign.Design_library.running_example in
        let s = Prcore.Scheme.one_module_per_region d in
        let repo = Repository.build ~device:(Fpga.Device.find_exn "LX30") s in
        let e = List.hd repo.Repository.entries in
        Alcotest.(check (float 1e-12)) "seconds"
          (Fpga.Icap.seconds_of_frames Fpga.Icap.default
             e.bitstream.Bitstream.header.frames)
          (Repository.load_seconds e)) ]

(* Property: serialise/parse round-trips arbitrary headers. *)
let prop_roundtrip =
  let gen =
    QCheck2.Gen.(
      map3
        (fun frames region (row, major) ->
          { Bitstream.design = "prop";
            variant = Printf.sprintf "v%d" region;
            region;
            far = Bitstream.far_of_origin ~row ~major;
            frames })
        (0 -- 64) (0 -- 100)
        (pair (0 -- 11) (0 -- 120)))
  in
  QCheck2.Test.make ~name:"serialise/parse round trip" ~count:100 gen
    (fun header ->
      let b = Bitstream.generate header in
      match Bitstream.parse (Bitstream.serialise b) with
      | Ok parsed -> parsed.Bitstream.header = header
      | Error _ -> false)

(* Differential references: the bytewise table-driven CRC-32 and the
   per-byte LCG payload loop, kept here independent of the word-at-a-time
   kernels in [Crc32] and [Bitstream]. *)
let reference_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let reference_update crc buffer ~pos ~len =
  let crc = ref crc in
  for i = pos to pos + len - 1 do
    let index =
      Int32.to_int
        (Int32.logand
           (Int32.logxor !crc (Int32.of_int (Char.code (Bytes.get buffer i))))
           0xFFl)
    in
    crc := Int32.logxor reference_table.(index) (Int32.shift_right_logical !crc 8)
  done;
  !crc

let reference_digest buffer =
  Int32.logxor
    (reference_update 0xFFFFFFFFl buffer ~pos:0 ~len:(Bytes.length buffer))
    0xFFFFFFFFl

let reference_payload (h : Bitstream.header) =
  let payload = Bytes.create (h.frames * Fpga.Frame.bytes_per_frame) in
  let seed =
    Int32.to_int
      (reference_digest (Bytes.of_string (h.design ^ "/" ^ h.variant)))
    land 0xFFFFFF
  in
  let state = ref (seed lor 1) in
  for i = 0 to Bytes.length payload - 1 do
    state := (!state * 1103515245) + 12345;
    Bytes.set payload i (Char.chr ((!state lsr 16) land 0xFF))
  done;
  payload

let random_bytes rng n =
  Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256))

(* A buffer of up to 64 KiB and a slice of it: a third of the slices are
   shorter than one 8-byte step, the empty slice included. *)
let gen_slice =
  QCheck2.Gen.(
    map
      (fun (n, seed) ->
        let rng = Random.State.make [| seed |] in
        let buffer = random_bytes rng n in
        let pos = Random.State.int rng (n + 1) in
        let room = n - pos in
        let len =
          if Random.State.int rng 3 = 0 then Random.State.int rng (min 8 room + 1)
          else Random.State.int rng (room + 1)
        in
        (buffer, pos, len, seed))
      (pair (0 -- 65_536) int))

let prop_crc_matches_reference =
  QCheck2.Test.make ~name:"slice-by-8 CRC equals bytewise reference"
    ~count:200 gen_slice (fun (buffer, pos, len, _) ->
      Crc32.update Crc32.initial buffer ~pos ~len
      = reference_update 0xFFFFFFFFl buffer ~pos ~len
      && Crc32.update 0x12345678l buffer ~pos ~len
         = reference_update 0x12345678l buffer ~pos ~len)

let prop_crc_chained =
  QCheck2.Test.make ~name:"chained CRC updates at random splits" ~count:200
    gen_slice (fun (buffer, pos, len, seed) ->
      let rng = Random.State.make [| seed; 1 |] in
      let rec feed crc pos len =
        if len = 0 then crc
        else begin
          let step = 1 + Random.State.int rng len in
          feed (Crc32.update crc buffer ~pos ~len:step) (pos + step) (len - step)
        end
      in
      Crc32.finalise (feed Crc32.initial pos len)
      = reference_digest (Bytes.sub buffer pos len))

let gen_header =
  QCheck2.Gen.(
    map3
      (fun frames design variant ->
        { Bitstream.design; variant; region = 1; far = 0; frames })
      (0 -- 300)
      (string_size ~gen:char (0 -- 64))
      (string_size ~gen:char (0 -- 64)))

let prop_payload_matches_reference =
  QCheck2.Test.make ~name:"four-lane payload equals per-byte LCG" ~count:100
    gen_header (fun header ->
      let b = Bitstream.generate header in
      let serialised = Bitstream.serialise b in
      Bytes.equal b.Bitstream.payload (reference_payload header)
      && b.Bitstream.crc
         = reference_digest
             (Bytes.sub serialised 0 (Bytes.length serialised - 4)))

let prop_size_bytes =
  QCheck2.Test.make ~name:"size_bytes equals serialised length" ~count:100
    gen_header (fun header ->
      let b = Bitstream.generate header in
      Bitstream.size_bytes b = Bytes.length (Bitstream.serialise b))

let () =
  Alcotest.run "bitgen"
    [ ("crc32", crc_tests);
      ("bitstream", bitstream_tests);
      ("repository", repository_tests);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip;
            prop_crc_matches_reference;
            prop_crc_chained;
            prop_payload_matches_reference;
            prop_size_bytes ] ) ]
