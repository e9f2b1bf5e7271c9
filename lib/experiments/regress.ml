(* Bench regression tracking: diff the latest BENCH metrics against a
   stored baseline under per-metric tolerance rules. Pure — the bench
   front-end loads the history JSONL and feeds two parsed documents in,
   so thresholds and verdicts are unit-testable without running a
   single benchmark. *)

module Json = Prtelemetry.Json

type direction = Higher_better | Lower_better | Unchanged

type rule = {
  pattern : string;  (* substring of the flattened dotted key *)
  direction : direction;
  tolerance_pct : float;
}

(* Generous tolerances: bench numbers come from shared, noisy hosts.
   The point is to catch step changes (a 2x slowdown from an accidental
   O(n^2), a cache whose hit rate collapsed), not 5% jitter. *)
let default_rules =
  [ (* Deterministic outputs, exact: a bit-identity or oracle check that
       turns false regresses, and so does any change, up or down, in
       the search's evaluation counts — a code change that alters them
       alters what the search does, which no speed-up may do. *)
    { pattern = "bit_identical"; direction = Higher_better;
      tolerance_pct = 0. };
    { pattern = "oracle_clean"; direction = Higher_better;
      tolerance_pct = 0. };
    { pattern = "deterministic"; direction = Higher_better;
      tolerance_pct = 0. };
    { pattern = "moves_evaluated"; direction = Unchanged;
      tolerance_pct = 0. };
    { pattern = "allocator.delta_evals"; direction = Unchanged;
      tolerance_pct = 0. };
    { pattern = "guard.evals_used"; direction = Unchanged;
      tolerance_pct = 0. };
    (* The V-cycle's coarsening rounds, merges and refinement trials:
       a changed merge order changes them. *)
    { pattern = ".levels"; direction = Unchanged; tolerance_pct = 0. };
    { pattern = ".merges"; direction = Unchanged; tolerance_pct = 0. };
    { pattern = ".trials"; direction = Unchanged; tolerance_pct = 0. };
    { pattern = "moves_per_sec"; direction = Higher_better;
      tolerance_pct = 30. };
    (* Runtime size curve: the simulator replay and the placer at
       50/100/200 modules. The 50-module rows run in about a
       millisecond, so they get more slack than the generic
       [ms_per_run] rule below (rules match first to last). *)
    { pattern = "simulate_ms_per_run"; direction = Lower_better;
      tolerance_pct = 50. };
    { pattern = "place_ms_per_run"; direction = Lower_better;
      tolerance_pct = 50. };
    { pattern = "ms_per_run"; direction = Lower_better; tolerance_pct = 30. };
    { pattern = "ns_per_run"; direction = Lower_better; tolerance_pct = 30. };
    { pattern = "speedup"; direction = Higher_better; tolerance_pct = 20. };
    { pattern = "hit_rate"; direction = Higher_better; tolerance_pct = 10. };
    { pattern = "p99_ms"; direction = Lower_better; tolerance_pct = 50. };
    { pattern = "p50_ms"; direction = Lower_better; tolerance_pct = 50. };
    { pattern = "qps"; direction = Higher_better; tolerance_pct = 40. };
    { pattern = "seconds"; direction = Lower_better; tolerance_pct = 40. };
    (* Prscale: the huge-design V-cycle. More refinement passes means
       refinement stopped converging; a growing gap against the
       eval-capped anneal means multilevel quality slipped. Both are
       deterministic, so the tolerance only absorbs intentional
       tuning. *)
    { pattern = "refine_passes"; direction = Lower_better;
      tolerance_pct = 50. };
    { pattern = "gap_vs_anneal_pct"; direction = Lower_better;
      tolerance_pct = 50. };
    (* Placement-aware flow: losing an avoided escalation means the
       aware search stopped beating the post-hoc feedback loop
       (deterministic, so zero tolerance); penalty evaluations are the
       estimator's share of the search cost. The aware solve latency is
       already covered by the ms_per_run rule above. *)
    { pattern = "escalations_avoided"; direction = Higher_better;
      tolerance_pct = 0. };
    { pattern = "placement_penalty_evals"; direction = Lower_better;
      tolerance_pct = 50. };
    (* Chaos soak: correctness counters, not performance numbers.  A
       lost or wrong reply under fault injection is a serving bug, so
       the tolerance is zero — any non-zero latest value against the
       all-zero baseline regresses (see the near-zero-baseline branch
       in [compare]). *)
    { pattern = "lost_replies"; direction = Lower_better;
      tolerance_pct = 0. };
    { pattern = "wrong_replies"; direction = Lower_better;
      tolerance_pct = 0. } ]

(* Flatten a JSON document to dotted-key numeric leaves, in document
   order: {"sweep":{"speedup":1.2}} -> [("sweep.speedup", 1.2)].
   Booleans become 1 (true) and 0 (false), so a check that turns false
   can regress; strings and arrays are skipped. *)
let flatten json =
  let rec walk prefix acc = function
    | Json.Int n -> (prefix, float_of_int n) :: acc
    | Json.Float f -> (prefix, f) :: acc
    | Json.Bool b -> (prefix, if b then 1. else 0.) :: acc
    | Json.Obj fields ->
      List.fold_left
        (fun acc (key, v) ->
          let path = if prefix = "" then key else prefix ^ "." ^ key in
          walk path acc v)
        acc fields
    | Json.Null | Json.String _ | Json.List _ -> acc
  in
  List.rev (walk "" [] json)

let rule_for rules key =
  List.find_opt
    (fun r ->
      let p = r.pattern and k = key in
      let pl = String.length p and kl = String.length k in
      let rec scan i =
        if i + pl > kl then false
        else if String.sub k i pl = p then true
        else scan (i + 1)
      in
      scan 0)
    rules

type verdict = Within | Improved | Regressed | Missing

type finding = {
  key : string;
  baseline : float;
  latest : float;  (* nan when [Missing] *)
  change_pct : float;
  verdict : verdict;
}

(* Compare every baseline metric that a rule covers against the latest
   document. Metrics present only in the latest run are new — never a
   regression. A near-zero baseline cannot express a percentage change:
   under a non-zero tolerance it is reported [Within] (the rule asks
   for slack we cannot measure), but under a zero-tolerance rule any
   movement in the worse direction is [Regressed] — that is exactly the
   contract of counters like chaos.lost_replies whose baseline is 0 and
   must stay 0. *)
let compare ?(rules = default_rules) ~baseline ~latest () =
  let latest_metrics = flatten latest in
  List.filter_map
    (fun (key, base) ->
      match rule_for rules key with
      | None -> None
      | Some rule ->
        let finding =
          match List.assoc_opt key latest_metrics with
          | None ->
            { key; baseline = base; latest = Float.nan; change_pct = 0.;
              verdict = Missing }
          | Some now ->
            if Float.abs base < 1e-12 then begin
              let worse =
                match rule.direction with
                | Higher_better -> now < base -. 1e-12
                | Lower_better -> now > base +. 1e-12
                | Unchanged -> Float.abs now > 1e-12
              in
              let verdict =
                if worse && rule.tolerance_pct <= 0. then Regressed
                else Within
              in
              { key; baseline = base; latest = now; change_pct = 0.;
                verdict }
            end
            else begin
              let change = 100. *. (now -. base) /. Float.abs base in
              let verdict =
                match rule.direction with
                | Higher_better ->
                  if change < -.rule.tolerance_pct then Regressed
                  else if change > rule.tolerance_pct then Improved
                  else Within
                | Lower_better ->
                  if change > rule.tolerance_pct then Regressed
                  else if change < -.rule.tolerance_pct then Improved
                  else Within
                | Unchanged ->
                  if Float.abs change > rule.tolerance_pct then Regressed
                  else Within
              in
              { key; baseline = base; latest = now; change_pct = change;
                verdict }
            end
        in
        Some finding)
    (flatten baseline)

let regressed findings =
  List.filter (fun f -> f.verdict = Regressed || f.verdict = Missing) findings

let verdict_label = function
  | Within -> "ok"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Missing -> "MISSING"

let render findings =
  if findings = [] then "bench-compare: no covered metrics in baseline\n"
  else begin
    let table =
      Report.Table.render
        ~headers:[ "metric"; "baseline"; "latest"; "change"; "verdict" ]
        (List.map
           (fun f ->
             [ f.key;
               Printf.sprintf "%.4g" f.baseline;
               (if f.verdict = Missing then "-"
                else Printf.sprintf "%.4g" f.latest);
               (if f.verdict = Missing then "-"
                else Printf.sprintf "%+.1f%%" f.change_pct);
               verdict_label f.verdict ])
           findings)
    in
    let bad = regressed findings in
    let footer =
      if bad = [] then
        Printf.sprintf "bench-compare: %d metric(s) within tolerance\n"
          (List.length findings)
      else
        Printf.sprintf "bench-compare: %d regression(s) out of %d metric(s)\n"
          (List.length bad) (List.length findings)
    in
    table ^ footer
  end
