module Design = Prdesign.Design

type t = {
  design_name : string;
  initial : int;
  sequence : int list;
}

let check design c =
  if c < 0 || c >= Design.configuration_count design then
    invalid_arg "Trace: configuration index out of range"

let record design ~initial ~sequence =
  check design initial;
  List.iter (check design) sequence;
  { design_name = design.Design.name; initial; sequence }

let of_markov design ~chain ~rand ~steps ~initial =
  let configs = Design.configuration_count design in
  if Markov.configs chain <> configs then
    invalid_arg "Trace.of_markov: chain does not match the design";
  check design initial;
  let pick from =
    let u = rand () in
    let rec walk j acc =
      if j >= configs - 1 then j
      else begin
        let acc = acc +. Markov.probability chain ~from ~into:j in
        if u < acc then j else walk (j + 1) acc
      end
    in
    walk 0 0.
  in
  let rec build current n acc =
    if n = 0 then List.rev acc
    else
      let next = pick current in
      build next (n - 1) (next :: acc)
  in
  { design_name = design.Design.name;
    initial;
    sequence = build initial steps [] }

let simulate ?icap ?memory ?cache ?telemetry ?fault scheme trace =
  let design = scheme.Prcore.Scheme.design in
  if design.Design.name <> trace.design_name then
    invalid_arg "Trace.simulate: trace belongs to a different design";
  Resilient.simulate ?icap ?memory ?cache ?telemetry ?fault scheme
    ~initial:trace.initial ~sequence:trace.sequence

let config_name design c =
  design.Design.configurations.(c).Prdesign.Configuration.name

let to_string design t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# prpart-trace v1\n";
  Buffer.add_string buf (Printf.sprintf "design %s\n" t.design_name);
  Buffer.add_string buf
    (Printf.sprintf "initial %s\n" (config_name design t.initial));
  List.iter
    (fun c -> Buffer.add_string buf (config_name design c ^ "\n"))
    t.sequence;
  Buffer.contents buf

let config_by_name design name =
  let rec search c =
    if c >= Design.configuration_count design then None
    else if config_name design c = name then Some c
    else search (c + 1)
  in
  search 0

let of_string design text =
  let lines =
    List.filter
      (fun line -> line <> "" && line.[0] <> '#')
      (List.map String.trim (String.split_on_char '\n' text))
  in
  let resolve name =
    match config_by_name design name with
    | Some c -> Ok c
    | None -> Error (Printf.sprintf "unknown configuration %S" name)
  in
  let rec parse lines state =
    match (lines, state) with
    | [], Some (initial, acc) ->
      Ok
        { design_name = design.Design.name;
          initial;
          sequence = List.rev acc }
    | [], None -> Error "trace has no initial configuration"
    | line :: rest, state -> (
      match String.split_on_char ' ' line with
      | [ "design"; name ] ->
        if name <> design.Design.name then
          Error
            (Printf.sprintf "trace is for design %S, not %S" name
               design.Design.name)
        else parse rest state
      | [ "initial"; name ] -> (
        match state with
        | Some _ -> Error "duplicate initial line"
        | None -> (
          match resolve name with
          | Ok c -> parse rest (Some (c, []))
          | Error e -> Error e))
      | [ name ] -> (
        match state with
        | None -> Error "configuration before the initial line"
        | Some (initial, acc) -> (
          match resolve name with
          | Ok c -> parse rest (Some (initial, c :: acc))
          | Error e -> Error e))
      | _ -> Error (Printf.sprintf "unparseable line %S" line))
  in
  parse lines None

let save_file design path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string design t))

let load_file design path =
  match open_in path with
  | exception Sys_error message -> Error message
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        of_string design (really_input_string ic (in_channel_length ic)))

let length t = List.length t.sequence
