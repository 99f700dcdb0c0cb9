type tier = Fast | Heavy
type decision = Admit | Downgrade | Shed

let tier_name = function Fast -> "fast" | Heavy -> "heavy"

let decision_name = function
  | Admit -> "admit"
  | Downgrade -> "downgrade"
  | Shed -> "shed"

type config = {
  capacity : float;
  refill_per_s : float;
  heavy_cost : float;
  fast_cost : float;
  estimate_cost : float;
}

let default_config =
  {
    capacity = 8.0;
    refill_per_s = 4.0;
    heavy_cost = 1.0;
    fast_cost = 0.02;
    estimate_cost = 0.25;
  }

type t = {
  config : config;
  clock : unit -> float;
  mutable tokens : float;
  mutable last : float;
  mutable admitted : int;
  mutable downgraded : int;
  mutable shed : int;
}

let make ?(clock = Harness.Clock.now) config =
  if config.capacity <= 0.0 then
    invalid_arg "Admission.make: capacity must be > 0";
  if config.refill_per_s < 0.0 then
    invalid_arg "Admission.make: refill_per_s must be >= 0";
  if config.heavy_cost <= 0.0 || config.fast_cost <= 0.0
     || config.estimate_cost <= 0.0
  then invalid_arg "Admission.make: costs must be > 0";
  if config.estimate_cost > config.heavy_cost then
    invalid_arg "Admission.make: estimate_cost must be <= heavy_cost";
  {
    config;
    clock;
    tokens = config.capacity;
    last = clock ();
    admitted = 0;
    downgraded = 0;
    shed = 0;
  }

(* A backwards clock step must neither credit tokens nor rewind [last]:
   the pre-fix code moved [last] back on a negative [dt], so the span the
   clock re-traversed after recovering was credited a second time —
   over-refilling the bucket by exactly the step size. Holding [last] still
   means a stepped-back clock refills nothing until it passes the high-water
   mark again, which only ever under-credits. *)
let refill t =
  let now = t.clock () in
  let dt = now -. t.last in
  if dt > 0.0 then begin
    t.tokens <-
      Float.min t.config.capacity (t.tokens +. (dt *. t.config.refill_per_s));
    t.last <- now
  end

let decide t tier =
  refill t;
  match tier with
  | Fast ->
      (* The PTIME tier is the SLO fast path: always admitted, charged a
         token sliver so a fast-request flood still registers as load. *)
      t.tokens <- Float.max 0.0 (t.tokens -. t.config.fast_cost);
      t.admitted <- t.admitted + 1;
      Admit
  | Heavy ->
      if t.tokens >= t.config.heavy_cost then begin
        t.tokens <- t.tokens -. t.config.heavy_cost;
        t.admitted <- t.admitted + 1;
        Admit
      end
      else if t.tokens >= t.config.estimate_cost then begin
        t.tokens <- t.tokens -. t.config.estimate_cost;
        t.downgraded <- t.downgraded + 1;
        Downgrade
      end
      else begin
        t.shed <- t.shed + 1;
        Shed
      end

let tokens t = t.tokens
let admitted t = t.admitted
let downgraded t = t.downgraded
let shed t = t.shed
