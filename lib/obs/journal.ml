type event = {
  seq : int;
  t_s : float;
  kind : string;
  fields : (string * Trace.value) list;
}

(* The closed vocabulary of the journal. A fixed kind set is what makes the
   log greppable and the decoder strict: a typo'd kind is a crash at the
   call site, not a silently unqueryable line a month later. *)
let kinds =
  [
    "request.admitted";
    "request.downgraded";
    "request.shed";
    "request.completed";
    "plane.compiled";
    "plane.patched";
    "plane.rejected";
    "tier.fallback";
    "budget.exhausted";
    "journal.rotated";
  ]

let known_kind k = List.mem k kinds

type t = {
  path : string;
  render : event -> string;
  clock : unit -> float;
  epoch : float;
  max_bytes : int;
  mutable oc : out_channel;
  mutable bytes : int;
  mutable seq : int;
  mutable rotations : int;
  mutable closed : bool;
}

let default_max_bytes = 8 * 1024 * 1024

let create ?(clock = Harness.Clock.now) ?(max_bytes = default_max_bytes)
    ~render path =
  if max_bytes < 1024 then
    invalid_arg "Journal.create: max_bytes must be >= 1024";
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  {
    path;
    render;
    clock;
    epoch = clock ();
    max_bytes;
    oc;
    bytes = out_channel_length oc;
    seq = 0;
    rotations = 0;
    closed = false;
  }

let path t = t.path
let seq t = t.seq
let rotations t = t.rotations

let write_line t line =
  output_string t.oc line;
  output_char t.oc '\n';
  t.bytes <- t.bytes + String.length line + 1;
  (* The journal is the crash-forensics artifact: an event buffered in a
     dead process explains nothing. One write syscall per event is cheap at
     request granularity — the obs-overhead bench holds it to the 5% bar. *)
  flush t.oc

let write_event t ev = write_line t (t.render ev)

let next_event t kind fields =
  let ev = { seq = t.seq; t_s = t.clock () -. t.epoch; kind; fields } in
  t.seq <- t.seq + 1;
  ev

let rotate t =
  close_out t.oc;
  let old = t.path ^ ".1" in
  (try Sys.remove old with Sys_error _ -> ());
  (try Sys.rename t.path old with Sys_error _ -> ());
  t.oc <- open_out t.path;
  t.bytes <- 0;
  t.rotations <- t.rotations + 1;
  write_event t
    (next_event t "journal.rotated"
       [ ("previous", Trace.String old); ("rotation", Trace.Int t.rotations) ])

let log t kind fields =
  if t.closed then invalid_arg "Journal.log: journal is closed";
  if not (known_kind kind) then
    invalid_arg ("Journal.log: unknown event kind " ^ kind);
  (* Size the event with a probe before allocating its seq: rotation writes
     a [journal.rotated] marker that claims the next seq, and the stream
     must stay seq-ordered within each segment. On the hot path (no
     rotation) the probe IS the event, so its rendering is written as-is —
     one render per event, which the obs-overhead bench bar depends on. *)
  let probe = { seq = t.seq; t_s = t.clock () -. t.epoch; kind; fields } in
  let line = t.render probe in
  if t.bytes > 0 && t.bytes + String.length line + 1 > t.max_bytes then begin
    rotate t;
    let ev = { probe with seq = t.seq } in
    t.seq <- t.seq + 1;
    write_event t ev
  end
  else begin
    t.seq <- t.seq + 1;
    write_line t line
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_out t.oc
  end
