type action = Pass | Pressure

exception Injected_fault of string

type t = {
  rng : Random.State.t;
  fail_p : float;
  delay_p : float;
  delay_s : float;
  pressure_p : float;
  sites : string list;
  mutable ticks : int;
  mutable faults : int;
  mutable delays : int;
  mutable pressures : int;
}

let make ?(seed = 0) ?(fail_p = 0.0) ?(delay_p = 0.0) ?(delay_s = 0.001)
    ?(pressure_p = 0.0) ?(sites = []) () =
  let check name p =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Chaos.make: %s must be in [0, 1]" name)
  in
  check "fail_p" fail_p;
  check "delay_p" delay_p;
  check "pressure_p" pressure_p;
  if delay_s < 0.0 then invalid_arg "Chaos.make: delay_s must be >= 0";
  List.iter
    (fun site ->
      if not (List.mem site Sites.all) then
        invalid_arg
          (Printf.sprintf "Chaos.make: unknown site %S (known sites: %s)" site
             (String.concat ", " Sites.all)))
    sites;
  {
    rng = Random.State.make [| seed; 0x51CA05 |];
    fail_p;
    delay_p;
    delay_s;
    pressure_p;
    sites;
    ticks = 0;
    faults = 0;
    delays = 0;
    pressures = 0;
  }

let targets c site = c.sites = [] || List.mem site c.sites

(* Draws happen in a fixed order (delay, fault, pressure) and only at
   targeted sites, so a given seed replays the same injection schedule. *)
let tick c ~site =
  if not (targets c site) then Pass
  else begin
    c.ticks <- c.ticks + 1;
    let draw p = p > 0.0 && Random.State.float c.rng 1.0 < p in
    if draw c.delay_p then begin
      c.delays <- c.delays + 1;
      Unix.sleepf c.delay_s
    end;
    if draw c.fail_p then begin
      c.faults <- c.faults + 1;
      raise (Injected_fault site)
    end;
    if draw c.pressure_p then begin
      c.pressures <- c.pressures + 1;
      Pressure
    end
    else Pass
  end

let ticks c = c.ticks
let faults c = c.faults
let delays c = c.delays
let pressures c = c.pressures
