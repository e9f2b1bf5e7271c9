type kind =
  | Crash_solve
  | Crash_cache_write
  | Torn_cache_write
  | Conn_reset
  | Slow_reply

let all_kinds =
  [ Crash_solve; Crash_cache_write; Torn_cache_write; Conn_reset; Slow_reply ]

let kind_name = function
  | Crash_solve -> "kill-solve"
  | Crash_cache_write -> "kill-cache-write"
  | Torn_cache_write -> "torn-cache-write"
  | Conn_reset -> "conn-reset"
  | Slow_reply -> "slow-reply"

let kind_of_string s = List.find_opt (fun k -> kind_name k = s) all_kinds

type point = Solve_point | Cache_write_point | Reply_point

let applies kind point =
  match (kind, point) with
  | Crash_solve, Solve_point -> true
  | (Crash_cache_write | Torn_cache_write), Cache_write_point -> true
  | (Conn_reset | Slow_reply), Reply_point -> true
  | Crash_solve, (Cache_write_point | Reply_point) -> false
  | (Crash_cache_write | Torn_cache_write), (Solve_point | Reply_point) ->
    false
  | (Conn_reset | Slow_reply), (Solve_point | Cache_write_point) -> false

type spec = {
  seed : int;
  rates : (kind * float) list;
  schedule : (int * kind) list;
  slow_reply_ms : float;
  max_faults : int option;
}

let disabled =
  { seed = 0; rates = []; schedule = []; slow_reply_ms = 100.;
    max_faults = None }

let validate spec =
  let bad_rate =
    List.find_opt (fun (_, r) -> r < 0. || r > 1. || Float.is_nan r) spec.rates
  in
  match bad_rate with
  | Some (k, r) ->
    Error (Printf.sprintf "rate %g for %s outside [0, 1]" r (kind_name k))
  | None ->
    if List.exists (fun (i, _) -> i < 0) spec.schedule then
      Error "scheduled fault at a negative operation index"
    else if spec.slow_reply_ms < 0. || Float.is_nan spec.slow_reply_ms then
      Error "slow-ms must be >= 0"
    else (
      match spec.max_faults with
      | Some n when n < 0 -> Error "max-faults must be >= 0"
      | Some _ | None -> Ok ())

let active spec =
  (match spec.max_faults with Some 0 -> false | Some _ | None -> true)
  && (List.exists (fun (_, r) -> r > 0.) spec.rates || spec.schedule <> [])

(* ------------------------------------------------------- spec grammar *)

(* A spec serialises to a comma-separated token list so it can ride on a
   single CLI flag:

     seed=42,kill-solve@0,torn-cache-write@1,conn-reset=0.05,slow-ms=120

   [kind@index] schedules an unconditional fault at the zero-based
   operation index of the kind's injection point; [kind=rate] sets the
   per-operation probability. *)
let spec_to_string spec =
  let buf = Buffer.create 64 in
  let add token =
    if Buffer.length buf > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf token
  in
  add (Printf.sprintf "seed=%d" spec.seed);
  List.iter
    (fun (i, k) -> add (Printf.sprintf "%s@%d" (kind_name k) i))
    spec.schedule;
  List.iter
    (fun (k, r) -> add (Printf.sprintf "%s=%g" (kind_name k) r))
    spec.rates;
  if spec.slow_reply_ms <> disabled.slow_reply_ms then
    add (Printf.sprintf "slow-ms=%g" spec.slow_reply_ms);
  (match spec.max_faults with
   | Some n -> add (Printf.sprintf "max-faults=%d" n)
   | None -> ());
  Buffer.contents buf

let spec_of_string s =
  let tokens =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  let parse acc token =
    match acc with
    | Error _ -> acc
    | Ok spec -> (
      match String.index_opt token '@' with
      | Some at -> (
        let name = String.sub token 0 at in
        let idx =
          String.sub token (at + 1) (String.length token - at - 1)
        in
        match (kind_of_string name, int_of_string_opt idx) with
        | Some kind, Some i when i >= 0 ->
          Ok { spec with schedule = spec.schedule @ [ (i, kind) ] }
        | Some _, _ ->
          Error (Printf.sprintf "bad schedule index in %S" token)
        | None, _ -> Error (Printf.sprintf "unknown fault kind in %S" token))
      | None -> (
        match String.index_opt token '=' with
        | None -> Error (Printf.sprintf "unparseable chaos token %S" token)
        | Some eq -> (
          let name = String.sub token 0 eq in
          let value =
            String.sub token (eq + 1) (String.length token - eq - 1)
          in
          match name with
          | "seed" -> (
            match int_of_string_opt value with
            | Some seed -> Ok { spec with seed }
            | None -> Error (Printf.sprintf "bad seed %S" value))
          | "slow-ms" -> (
            match float_of_string_opt value with
            | Some ms when ms >= 0. -> Ok { spec with slow_reply_ms = ms }
            | _ -> Error (Printf.sprintf "bad slow-ms %S" value))
          | "max-faults" -> (
            match int_of_string_opt value with
            | Some n when n >= 0 -> Ok { spec with max_faults = Some n }
            | _ -> Error (Printf.sprintf "bad max-faults %S" value))
          | _ -> (
            match (kind_of_string name, float_of_string_opt value) with
            | Some kind, Some rate ->
              Ok { spec with rates = spec.rates @ [ (kind, rate) ] }
            | None, _ ->
              Error (Printf.sprintf "unknown fault kind in %S" token)
            | Some _, None ->
              Error (Printf.sprintf "bad rate in %S" token)))))
  in
  match List.fold_left parse (Ok disabled) tokens with
  | Error _ as e -> e
  | Ok spec -> (
    match validate spec with
    | Ok () -> Ok spec
    | Error msg -> Error msg)

(* ---------------------------------------------------------- live state *)

type t = {
  spec : spec;
  rng : Synth.Rng.t;
  counters : (point, int) Hashtbl.t;
      (* Each injection point numbers its own operations: [kill-solve@2]
         is the third solve regardless of interleaved cache writes. *)
  mutable injected : int;
}

let start spec =
  (match validate spec with
   | Ok () -> ()
   | Error message -> invalid_arg ("Service.start: " ^ message));
  { spec;
    rng = Synth.Rng.make spec.seed;
    counters = Hashtbl.create 8;
    injected = 0 }

let spec t = t.spec
let faults_injected t = t.injected

let operations t point =
  match Hashtbl.find_opt t.counters point with Some n -> n | None -> 0

(* One probabilistic decision per applicable kind in declaration order;
   a draw is consumed hit or miss so the stream depends only on the
   operation sequence (same discipline as [Injector]). *)
let probabilistic t point =
  List.fold_left
    (fun fired kind ->
      if not (applies kind point) then fired
      else begin
        let rate =
          match List.assoc_opt kind t.spec.rates with
          | Some r -> r
          | None -> 0.
        in
        let u = Synth.Rng.float t.rng in
        match fired with
        | Some _ -> fired
        | None -> if rate > 0. && u < rate then Some kind else None
      end)
    None all_kinds

let draw t point =
  let index = operations t point in
  Hashtbl.replace t.counters point (index + 1);
  let scheduled =
    List.find_opt
      (fun (i, kind) -> i = index && applies kind point)
      t.spec.schedule
  in
  let fault =
    match scheduled with
    | Some (_, kind) -> Some kind
    | None -> probabilistic t point
  in
  let budget_ok =
    match t.spec.max_faults with
    | None -> true
    | Some n -> t.injected < n
  in
  match fault with
  | Some _ when budget_ok ->
    t.injected <- t.injected + 1;
    fault
  | Some _ | None -> None
