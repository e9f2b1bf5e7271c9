type cancel = bool Atomic.t

let cancel_token () : cancel = Atomic.make false
let cancel (c : cancel) = Atomic.set c true
let cancelled (c : cancel) = Atomic.get c

type clock = unit -> float

(* The default deadline clock. [Unix.gettimeofday] is a wall clock: NTP
   steps and manual clock changes can move it in either direction, and a
   daemon that lives for days will see them. Backward jumps are the
   dangerous direction — a deadline that stops approaching extends a job
   indefinitely — so the default clock latches the largest time ever
   observed (process-wide, lock-free) and never goes backwards. Forward
   jumps at worst expire budgets early, which the anytime contract
   already tolerates: the solver returns its best-so-far answer.
   Long-running callers that need full independence from the wall clock
   (or tests that need a deterministic timeline) inject their own
   [clock]. *)
let monotonic_floor = Atomic.make (Int64.bits_of_float 0.)

let monotonic () =
  let t = Unix.gettimeofday () in
  let rec clamp () =
    let prev = Atomic.get monotonic_floor in
    let prev_t = Int64.float_of_bits prev in
    if t <= prev_t then prev_t
    else if Atomic.compare_and_set monotonic_floor prev (Int64.bits_of_float t)
    then t
    else clamp ()
  in
  clamp ()

type spec = { deadline_ms : float option; max_evals : int option }

let spec ?deadline_ms ?max_evals () = { deadline_ms; max_evals }
let unlimited = { deadline_ms = None; max_evals = None }

let is_unlimited s = s.deadline_ms = None && s.max_evals = None

let spec_to_string s =
  match (s.deadline_ms, s.max_evals) with
  | None, None -> "unlimited"
  | Some d, None -> Printf.sprintf "%.0fms" d
  | None, Some e -> Printf.sprintf "%d evals" e
  | Some d, Some e -> Printf.sprintf "%.0fms/%d evals" d e

type t = {
  deadline : float option;  (** absolute, [clock] seconds *)
  max_evals : int option;
  evals : int Atomic.t;
  cancel_tok : cancel;
  clock : clock;
  started : float;
  parent : t option;
  expired : bool Atomic.t;  (** sticky deadline flag *)
  probe : int Atomic.t;  (** clock-probe stride counter *)
}

let make ?(clock = monotonic) ?deadline_ms ?max_evals ?cancel () =
  let started = clock () in
  {
    deadline = Option.map (fun ms -> started +. (ms /. 1000.)) deadline_ms;
    max_evals;
    evals = Atomic.make 0;
    cancel_tok = (match cancel with Some c -> c | None -> cancel_token ());
    clock;
    started;
    parent = None;
    expired = Atomic.make false;
    probe = Atomic.make 0;
  }

let of_spec ?clock ?cancel s =
  make ?clock ?deadline_ms:s.deadline_ms ?max_evals:s.max_evals ?cancel ()

let child parent s =
  let started = parent.clock () in
  let own = Option.map (fun ms -> started +. (ms /. 1000.)) s.deadline_ms in
  let deadline =
    match (parent.deadline, own) with
    | None, d | d, None -> d
    | Some a, Some b -> Some (Float.min a b)
  in
  {
    deadline;
    max_evals = s.max_evals;
    evals = Atomic.make 0;
    cancel_tok = parent.cancel_tok;
    clock = parent.clock;
    started;
    parent = Some parent;
    expired = Atomic.make false;
    probe = Atomic.make 0;
  }

let rec charge ?(n = 1) t =
  ignore (Atomic.fetch_and_add t.evals n);
  match t.parent with None -> () | Some p -> charge ~n p

let evals_used t = Atomic.get t.evals
let elapsed_ms t = (t.clock () -. t.started) *. 1000.
let has_eval_cap t = t.max_evals <> None

type reason = Completed | Deadline | Eval_cap | Cancelled

let reason_name = function
  | Completed -> "completed"
  | Deadline -> "deadline"
  | Eval_cap -> "eval-cap"
  | Cancelled -> "cancelled"

(* Deadline probing: [Unix.gettimeofday] is cheap but not free; probe the
   clock on a small stride and latch the result so the expiry point cannot
   oscillate. *)
let probe_stride = 16

let deadline_passed t =
  match t.deadline with
  | None -> false
  | Some _ when Atomic.get t.expired -> true
  | Some d ->
      let k = Atomic.fetch_and_add t.probe 1 in
      if k mod probe_stride <> 0 then false
      else if t.clock () > d then (
        Atomic.set t.expired true;
        true)
      else false

(* An immediate (stride-free) deadline check, used by [exhausted] so that a
   final classification is exact. *)
let deadline_passed_now t =
  match t.deadline with
  | None -> false
  | Some _ when Atomic.get t.expired -> true
  | Some d ->
      if t.clock () > d then (
        Atomic.set t.expired true;
        true)
      else false

let rec eval_cap_hit t =
  (match t.max_evals with Some cap -> Atomic.get t.evals >= cap | None -> false)
  || match t.parent with None -> false | Some p -> eval_cap_hit p

let exhausted t =
  if cancelled t.cancel_tok then Some Cancelled
  else if deadline_passed_now t then Some Deadline
  else if eval_cap_hit t then Some Eval_cap
  else None

let interrupted t = cancelled t.cancel_tok || deadline_passed t

type verdict = {
  guarded : bool;
  degraded : bool;
  reason : reason;
  rung : string option;
  evals_used : int;
  elapsed_ms : float;
}

let no_budget =
  {
    guarded = false;
    degraded = false;
    reason = Completed;
    rung = None;
    evals_used = 0;
    elapsed_ms = 0.;
  }

let verdict ?rung t =
  let reason = match exhausted t with None -> Completed | Some r -> r in
  {
    guarded = true;
    degraded = reason <> Completed;
    reason;
    rung;
    evals_used = evals_used t;
    elapsed_ms = elapsed_ms t;
  }

let render_verdict v =
  if not v.guarded then "unguarded"
  else
    Printf.sprintf "%s%s (%d evals, %.1f ms)%s"
      (if v.degraded then "degraded: " else "")
      (reason_name v.reason) v.evals_used v.elapsed_ms
      (match v.rung with None -> "" | Some r -> Printf.sprintf " via %s" r)
