(* Content fingerprints are built from length-prefixed frames: every
   variable-length field is rendered as "<len>:<bytes>", so no choice of
   relation name or string value can make two different databases
   concatenate to the same digest input. (The pre-fix scheme joined the
   pretty-printed schemas with ';' and the pretty-printed facts with '\n' —
   both characters [Value.pp] emits verbatim inside string values, so
   moving a separator across a value boundary produced colliding keys.)

   Facts are digested individually and the digests combined by XOR. The
   combination is order-independent, and — XOR being its own inverse — a
   delta update folds the digests of the toggled facts into the cached
   accumulator in O(|delta|) instead of re-hashing the whole database; that
   is the rolling fingerprint the daemon's [update] op patches entries
   under. *)
module Fingerprint = struct
  (* A nonnegative int's decimal digits, written without a string. *)
  let rec add_digits buf n =
    if n >= 10 then add_digits buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

  let frame buf s =
    add_digits buf (String.length s);
    Buffer.add_char buf ':';
    Buffer.add_string buf s

  (* [Value.to_token] is injective on values (unlike [Value.pp], which
     renders [Int 1] and [Str "1"] identically), and the frames make the
     concatenation of relation symbol and cells injective on facts. A fact
     renders into [buf] (cleared first); [tok] holds one cell's token while
     its frame length is written. *)
  let render buf tok (f : Relational.Fact.t) =
    Buffer.clear buf;
    frame buf f.Relational.Fact.rel;
    let tuple = f.Relational.Fact.tuple in
    for p = 0 to Array.length tuple - 1 do
      Buffer.clear tok;
      Relational.Value.add_token tok tuple.(p);
      add_digits buf (Buffer.length tok);
      Buffer.add_char buf ':';
      Buffer.add_buffer buf tok
    done;
    Digest.string (Buffer.contents buf)

  let fact_digest f = render (Buffer.create 64) (Buffer.create 16) f

  (* [acc] XOR= [d], in place; [d] is at least as long as [acc]. *)
  let xor_into acc d =
    for i = 0 to Bytes.length acc - 1 do
      Bytes.unsafe_set acc i
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get acc i) lxor Char.code (String.unsafe_get d i)))
    done

  let xor a b =
    let n = String.length a in
    if String.length b <> n then
      invalid_arg "Plane_cache.Fingerprint.xor: length mismatch";
    let acc = Bytes.of_string a in
    xor_into acc b;
    Bytes.unsafe_to_string acc

  let empty = String.make 16 '\000'

  let facts_xor db =
    let acc = Bytes.of_string empty in
    let buf = Buffer.create 64 and tok = Buffer.create 16 in
    Relational.Fact.Set.iter
      (fun f -> xor_into acc (render buf tok f))
      (Relational.Database.fact_set db);
    Bytes.unsafe_to_string acc

  (* Schemas and the fact count round out the digest input: the XOR
     accumulator alone is blind to both (and maps the empty fact set and
     any digest-cancelling pair to the same bytes). *)
  let finish db ~facts_xor =
    let buf = Buffer.create 256 in
    List.iter
      (fun (s : Relational.Schema.t) ->
        frame buf s.Relational.Schema.name;
        frame buf (string_of_int s.Relational.Schema.arity);
        frame buf (string_of_int s.Relational.Schema.key_len))
      (Relational.Database.schemas db);
    Buffer.add_string buf facts_xor;
    frame buf (string_of_int (Relational.Database.size db));
    Digest.to_hex (Digest.string (Buffer.contents buf))

  let of_db db =
    let acc = facts_xor db in
    (acc, finish db ~facts_xor:acc)
end

type entry = {
  fingerprint : string;
  facts_xor : string;
      (* the XOR-of-fact-digests accumulator behind [fingerprint]; carried
         so an update can roll the key in O(|delta|) and [validate] can
         re-check it in O(relations) *)
  db : Relational.Database.t;
  plane : Relational.Compiled.t;
}

type slot = { entry : entry; mutable used : int }

exception Corrupt_plane of string

type t = {
  capacity : int;
  sanitize : (Relational.Compiled.t -> (unit, string) result) option;
  slots : (string, slot) Hashtbl.t;
  mutable tick : int;  (* LRU clock: bumped on every touch *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable stale : int;
  mutable rejected : int;
}

let make ?(capacity = 8) ?sanitize () =
  if capacity < 1 then invalid_arg "Plane_cache.make: capacity must be >= 1";
  {
    capacity;
    sanitize;
    slots = Hashtbl.create 16;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    stale = 0;
    rejected = 0;
  }

let fingerprint db = snd (Fingerprint.of_db db)

let touch t slot =
  t.tick <- t.tick + 1;
  slot.used <- t.tick

(* A cached entry is served only if its stored accumulator re-derives the
   key it is filed under: O(relations), not one digest per fact (see the
   trust boundary in the interface). A mismatch means the entry went stale
   (however it got there — an injection, a wrong key handed to [replace],
   a bug): serving it would answer for the wrong database, so it is
   evicted instead. *)
let validate t fp slot =
  let { db; facts_xor; _ } = slot.entry in
  if String.equal (Fingerprint.finish db ~facts_xor) fp then true
  else begin
    Hashtbl.remove t.slots fp;
    t.stale <- t.stale + 1;
    t.evictions <- t.evictions + 1;
    false
  end

let find t fp =
  match Hashtbl.find_opt t.slots fp with
  | None -> None
  | Some slot when not (validate t fp slot) -> None
  | Some slot ->
      touch t slot;
      t.hits <- t.hits + 1;
      Some slot.entry

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun fp slot acc ->
        match acc with
        | Some (_, used) when used <= slot.used -> acc
        | _ -> Some (fp, slot.used))
      t.slots None
  in
  match victim with
  | None -> ()
  | Some (fp, _) ->
      Hashtbl.remove t.slots fp;
      t.evictions <- t.evictions + 1

let sanitize_or_reject t plane =
  match t.sanitize with
  | None -> ()
  | Some check -> (
      match check plane with
      | Ok () -> ()
      | Error msg ->
          t.rejected <- t.rejected + 1;
          raise (Corrupt_plane msg))

let find_or_compile ?tick t db =
  let facts_xor, fp = Fingerprint.of_db db in
  match find t fp with
  | Some entry -> (entry, true)
  | None ->
      (* Compile before touching the table: a chaos fault or budget stop
         raised mid-compilation must leave the cache unchanged. *)
      let plane = Relational.Compiled.compile ?tick db in
      (* Sanitize-on-insert: a plane that violates its layout invariants is
         refused, not cached — nothing downstream ever sees it. *)
      sanitize_or_reject t plane;
      let entry = { fingerprint = fp; facts_xor; db; plane } in
      t.misses <- t.misses + 1;
      if Hashtbl.length t.slots >= t.capacity then evict_lru t;
      t.tick <- t.tick + 1;
      Hashtbl.add t.slots fp { entry; used = t.tick };
      (entry, false)

(* Capacity is enforced on every insertion path. The pre-fix [inject] went
   straight to [Hashtbl.replace], so each planted entry grew the table past
   [capacity] for the cache's whole lifetime — the LRU bound only ever held
   if nothing injected. Planting a genuinely new key into a full cache now
   evicts the LRU victim first; replacing an existing key does not. *)
let inject t ~fingerprint entry =
  if
    (not (Hashtbl.mem t.slots fingerprint))
    && Hashtbl.length t.slots >= t.capacity
  then evict_lru t;
  t.tick <- t.tick + 1;
  Hashtbl.replace t.slots fingerprint { entry; used = t.tick }

(* Re-key a cached entry after an in-place delta update: the slot under
   [old_fingerprint] is dropped (a re-key, not an eviction — no counter
   moves) and [entry] is stored under its own rolling fingerprint, most
   recently used. The sanitize gate runs first, so a rejected patched plane
   raises with the cache unchanged and the old entry still serving the
   pre-delta database. *)
let replace t ~old_fingerprint entry =
  sanitize_or_reject t entry.plane;
  Hashtbl.remove t.slots old_fingerprint;
  if
    (not (Hashtbl.mem t.slots entry.fingerprint))
    && Hashtbl.length t.slots >= t.capacity
  then evict_lru t;
  t.tick <- t.tick + 1;
  Hashtbl.replace t.slots entry.fingerprint { entry; used = t.tick }

type stats = {
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
  stale : int;
  rejected : int;
}

let stats t =
  {
    entries = Hashtbl.length t.slots;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    stale = t.stale;
    rejected = t.rejected;
  }
