type exhaustion = Deadline | Steps | Pressure of string

exception Budget_exceeded of exhaustion

let pp_exhaustion ppf = function
  | Deadline -> Format.pp_print_string ppf "wall-clock deadline"
  | Steps -> Format.pp_print_string ppf "step budget"
  | Pressure site ->
      Format.fprintf ppf "step budget (injected pressure at site %s)"
        (if site = "" then "(unnamed)" else site)

type t = {
  deadline : float;  (* absolute [Clock.now] time; [infinity] when unbounded *)
  max_steps : int;  (* [max_int] when unbounded *)
  check_every : int;  (* consult the clock every this many ticks *)
  chaos : Chaos.t option;
  site_steps : (string, int) Hashtbl.t;  (* flushed totals, excluding the run *)
  (* Run-length accounting: consecutive ticks almost always come from the
     same loop, and a literal site argument is physically the same string
     on every iteration, so the common case is one pointer compare and one
     unboxed field increment. The current run is folded into [site_steps]
     only when the site changes or a reader asks. *)
  mutable last_site : string;
  mutable last_run : int;
  mutable steps : int;
  mutable exhausted : exhaustion option;
}

let unlimited () =
  {
    deadline = infinity;
    max_steps = max_int;
    check_every = 64;
    chaos = None;
    site_steps = Hashtbl.create 8;
    last_site = "";
    last_run = 0;
    steps = 0;
    exhausted = None;
  }

let make ?timeout ?max_steps ?(check_every = 64) ?chaos () =
  (match timeout with
  | Some s when s < 0.0 -> invalid_arg "Budget.make: timeout must be >= 0"
  | Some _ | None -> ());
  (match max_steps with
  | Some n when n < 0 -> invalid_arg "Budget.make: max_steps must be >= 0"
  | Some _ | None -> ());
  if check_every < 1 then invalid_arg "Budget.make: check_every must be >= 1";
  {
    deadline =
      (match timeout with
      | None -> infinity
      | Some s -> Clock.now () +. s);
    max_steps = Option.value ~default:max_int max_steps;
    check_every;
    chaos;
    site_steps = Hashtbl.create 8;
    last_site = "";
    last_run = 0;
    steps = 0;
    exhausted = None;
  }

let steps b = b.steps
let exhausted b = b.exhausted

let flush_run b =
  if b.last_run > 0 then begin
    let prev = Option.value ~default:0 (Hashtbl.find_opt b.site_steps b.last_site) in
    Hashtbl.replace b.site_steps b.last_site (prev + b.last_run);
    b.last_run <- 0
  end

let hottest_first (s1, n1) (s2, n2) =
  match compare (n2 : int) n1 with 0 -> compare (s1 : string) s2 | c -> c

let steps_by_site b =
  flush_run b;
  Hashtbl.fold
    (fun site n acc -> if n > 0 then (site, n) :: acc else acc)
    b.site_steps []
  |> List.sort hottest_first

let hottest_site b = match steps_by_site b with [] -> None | top :: _ -> Some top

let pp_site_breakdown ppf sites =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (site, n) ->
      Format.fprintf ppf "%s=%d" (if site = "" then "(unnamed)" else site) n)
    ppf sites

let stop b reason =
  b.exhausted <- Some reason;
  raise (Budget_exceeded reason)

(* Cold half of the site accounting: only runs when the metered loop
   changes (a few times per solve). *)
let[@inline never] change_site b site =
  flush_run b;
  b.last_site <- site;
  b.last_run <- 1

let[@inline] count_site b site =
  if site == b.last_site || String.equal site b.last_site then
    b.last_run <- b.last_run + 1
  else change_site b site

let tick ~site b =
  (match b.exhausted with Some reason -> raise (Budget_exceeded reason) | None -> ());
  b.steps <- b.steps + 1;
  count_site b site;
  (match b.chaos with
  | None -> ()
  | Some c -> (
      match Chaos.tick c ~site with
      | Chaos.Pass -> ()
      | Chaos.Pressure -> stop b (Pressure site)));
  if b.steps >= b.max_steps then stop b Steps;
  if b.deadline < infinity && b.steps mod b.check_every = 0
     && Clock.now () >= b.deadline then stop b Deadline
