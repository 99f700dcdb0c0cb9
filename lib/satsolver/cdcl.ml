type result = Sat of bool array | Unsat

(* Literal codes: variable [v] is [2v] (positive) and [2v + 1] (negative),
   so negation is [lxor 1] and the variable is [lsr 1].

   The clause at offset [c] of the arena has [arena.(c)] literals, from
   [c + 3] on. Its first two literals are its watches, and a clause that
   implied a literal holds it first. The watch lists are threaded through
   the clauses: [head.(l)] is the first clause watching [l], and
   [arena.(c + 1)] and [arena.(c + 2)] are the next clause (or -1) in the
   lists of [c]'s first and second literal. *)

type t = {
  n_vars : int;
  mutable arena : int array;
  mutable arena_len : int;
  head : int array;  (* per literal: the first clause watching it, or -1 *)
  vals : int array;  (* per literal: 1 true, -1 false, 0 unassigned *)
  level : int array;  (* per variable *)
  reason : int array;  (* per variable: the implying clause, or -1 *)
  trail : int array;
  mutable trail_len : int;
  mutable qhead : int;  (* trail literals before it are propagated *)
  trail_lim : int array;  (* [trail_lim.(d)]: trail length when level d + 1 began *)
  mutable decision_level : int;
  activity : float array;
  mutable var_inc : float;
  heap : int array;  (* unassigned variables, by activity, ties lowest first *)
  heap_index : int array;  (* position in [heap], or -1 *)
  mutable heap_len : int;
  phase : bool array;
  seen : bool array;
  learnt : int array;
  mutable learnt_len : int;
  mark : int array;  (* per literal: the [stamp] of the last clause holding it *)
  mutable stamp : int;
  clause_buf : int array;
  mutable root_conflict : bool;
  mutable solved : bool;
}

let decay = 0.95
let restart_unit = 100

let create ~n_vars =
  if n_vars < 0 then invalid_arg "Cdcl.create: negative variable count";
  let n = n_vars + 1 in
  {
    n_vars;
    arena = Array.make 1024 0;
    arena_len = 0;
    head = Array.make (2 * n) (-1);
    vals = Array.make (2 * n) 0;
    level = Array.make n 0;
    reason = Array.make n (-1);
    trail = Array.make n 0;
    trail_len = 0;
    qhead = 0;
    trail_lim = Array.make n 0;
    decision_level = 0;
    activity = Array.make n 0.;
    var_inc = 1.;
    (* Equal activities order by variable, so [1 .. n_vars] is a heap. *)
    heap = Array.init n_vars (fun i -> i + 1);
    heap_index = Array.init n (fun v -> v - 1);
    heap_len = n_vars;
    phase = Array.make n true;
    seen = Array.make n false;
    learnt = Array.make n 0;
    learnt_len = 0;
    mark = Array.make (2 * n) 0;
    stamp = 0;
    clause_buf = Array.make n 0;
    root_conflict = false;
    solved = false;
  }

(* ------------------------------------------------------------------ *)
(* The decision heap                                                   *)

let before t a b =
  let xa = t.activity.(a) and xb = t.activity.(b) in
  xa > xb || (xa = xb && a < b)

let place t i v =
  t.heap.(i) <- v;
  t.heap_index.(v) <- i

let sift_up t i =
  let v = t.heap.(i) in
  let i = ref i in
  while !i > 0 && before t v t.heap.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    place t !i t.heap.(parent);
    i := parent
  done;
  place t !i v

let sift_down t i =
  let v = t.heap.(i) in
  let i = ref i and settled = ref false in
  while not !settled do
    let l = (2 * !i) + 1 in
    if l >= t.heap_len then settled := true
    else begin
      let r = l + 1 in
      let child = if r < t.heap_len && before t t.heap.(r) t.heap.(l) then r else l in
      if before t t.heap.(child) v then begin
        place t !i t.heap.(child);
        i := child
      end
      else settled := true
    end
  done;
  place t !i v

let heap_insert t v =
  if t.heap_index.(v) < 0 then begin
    t.heap_len <- t.heap_len + 1;
    place t (t.heap_len - 1) v;
    sift_up t (t.heap_len - 1)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_len <- t.heap_len - 1;
  t.heap_index.(v) <- -1;
  if t.heap_len > 0 then begin
    place t 0 t.heap.(t.heap_len);
    sift_down t 0
  end;
  v

let bump t v =
  let a = t.activity.(v) +. t.var_inc in
  t.activity.(v) <- a;
  if a > 1e100 then begin
    for u = 1 to t.n_vars do
      t.activity.(u) <- t.activity.(u) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.heap_index.(v) >= 0 then sift_up t t.heap_index.(v)

(* ------------------------------------------------------------------ *)
(* Clauses, trail and propagation                                      *)

(* Stores [lits.(0 .. len - 1)] (len >= 2) and watches its first two. *)
let append_clause t lits len =
  let c = t.arena_len in
  if c + len + 3 > Array.length t.arena then begin
    let bigger = Array.make (max (2 * Array.length t.arena) (c + len + 3)) 0 in
    Array.blit t.arena 0 bigger 0 c;
    t.arena <- bigger
  end;
  let a = t.arena in
  a.(c) <- len;
  for i = 0 to len - 1 do
    a.(c + 3 + i) <- lits.(i)
  done;
  a.(c + 1) <- t.head.(lits.(0));
  t.head.(lits.(0)) <- c;
  a.(c + 2) <- t.head.(lits.(1));
  t.head.(lits.(1)) <- c;
  t.arena_len <- c + len + 3;
  c

let enqueue t p from =
  t.vals.(p) <- 1;
  t.vals.(p lxor 1) <- -1;
  let v = p lsr 1 in
  t.level.(v) <- t.decision_level;
  t.reason.(v) <- from;
  t.trail.(t.trail_len) <- p;
  t.trail_len <- t.trail_len + 1

(* Propagates the trail from [qhead]; returns a falsified clause, or -1. *)
let propagate t =
  let a = t.arena and vals = t.vals and head = t.head in
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < t.trail_len do
    let falsified = t.trail.(t.qhead) lxor 1 in
    t.qhead <- t.qhead + 1;
    (* [prev]: the last clause kept in the list, or -1 for [head]. *)
    let prev = ref (-1) and c = ref head.(falsified) in
    while !c >= 0 do
      let cl = !c in
      if a.(cl + 3) = falsified then begin
        a.(cl + 3) <- a.(cl + 4);
        a.(cl + 4) <- falsified;
        let next = a.(cl + 1) in
        a.(cl + 1) <- a.(cl + 2);
        a.(cl + 2) <- next
      end;
      let next = a.(cl + 2) and first = a.(cl + 3) in
      if vals.(first) = 1 then begin
        prev := cl;
        c := next
      end
      else begin
        let len = a.(cl) in
        let k = ref 2 in
        while !k < len && vals.(a.(cl + 3 + !k)) = -1 do
          incr k
        done;
        if !k < len then begin
          (* Move the watch to the non-false literal found. *)
          let l = a.(cl + 3 + !k) in
          a.(cl + 4) <- l;
          a.(cl + 3 + !k) <- falsified;
          if !prev < 0 then head.(falsified) <- next else a.(!prev + 2) <- next;
          a.(cl + 2) <- head.(l);
          head.(l) <- cl;
          c := next
        end
        else begin
          prev := cl;
          if vals.(first) = -1 then begin
            conflict := cl;
            c := -1
          end
          else begin
            enqueue t first cl;
            c := next
          end
        end
      end
    done
  done;
  !conflict

let cancel_until t lvl =
  if t.decision_level > lvl then begin
    let stop = t.trail_lim.(lvl) in
    for i = t.trail_len - 1 downto stop do
      let p = t.trail.(i) in
      let v = p lsr 1 in
      t.vals.(p) <- 0;
      t.vals.(p lxor 1) <- 0;
      t.reason.(v) <- -1;
      t.phase.(v) <- p land 1 = 0;
      heap_insert t v
    done;
    t.trail_len <- stop;
    t.qhead <- stop;
    t.decision_level <- lvl
  end

(* 1-UIP analysis of the falsified clause [confl]: leaves the learnt clause
   in [learnt.(0 .. learnt_len - 1)], its asserting literal first and a
   literal of the backjump level second, and returns that level. *)
let analyze t confl =
  let len = ref 1 and pending = ref 0 and p = ref (-1) in
  let idx = ref (t.trail_len - 1) and c = ref confl in
  let continue = ref true in
  while !continue do
    let c0 = !c in
    for j = (if !p < 0 then 0 else 1) to t.arena.(c0) - 1 do
      let q = t.arena.(c0 + 3 + j) in
      let v = q lsr 1 in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        bump t v;
        if t.level.(v) >= t.decision_level then incr pending
        else begin
          t.learnt.(!len) <- q;
          incr len
        end
      end
    done;
    while not t.seen.(t.trail.(!idx) lsr 1) do
      decr idx
    done;
    p := t.trail.(!idx);
    decr idx;
    c := t.reason.(!p lsr 1);
    t.seen.(!p lsr 1) <- false;
    decr pending;
    if !pending = 0 then continue := false
  done;
  t.learnt.(0) <- !p lxor 1;
  let backjump =
    if !len = 1 then 0
    else begin
      let best = ref 1 in
      for i = 2 to !len - 1 do
        if t.level.(t.learnt.(i) lsr 1) > t.level.(t.learnt.(!best) lsr 1) then
          best := i
      done;
      let q = t.learnt.(!best) in
      t.learnt.(!best) <- t.learnt.(1);
      t.learnt.(1) <- q;
      t.level.(q lsr 1)
    end
  in
  for i = 1 to !len - 1 do
    t.seen.(t.learnt.(i) lsr 1) <- false
  done;
  t.learnt_len <- !len;
  backjump

let learn t =
  if t.learnt_len = 1 then enqueue t t.learnt.(0) (-1)
  else enqueue t t.learnt.(0) (append_clause t t.learnt t.learnt_len)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

(* Copies the literals of a clause into [clause_buf], each once, and
   returns how many, or -1 for a tautology. *)
let rec collect t len tautology = function
  | [] -> if tautology then -1 else len
  | l :: rest ->
      let v = abs l in
      if l = 0 || v > t.n_vars then
        invalid_arg (Printf.sprintf "Cdcl.add_clause: literal %d out of range" l);
      let p = if l > 0 then 2 * v else (2 * v) + 1 in
      if tautology || t.mark.(p lxor 1) = t.stamp then collect t len true rest
      else if t.mark.(p) = t.stamp then collect t len false rest
      else begin
        t.mark.(p) <- t.stamp;
        t.clause_buf.(len) <- p;
        collect t (len + 1) false rest
      end

let add_clause t lits =
  if t.solved then invalid_arg "Cdcl.add_clause: the solver was already used";
  t.stamp <- t.stamp + 1;
  match collect t 0 false lits with
  | -1 -> ()
  | _ when t.root_conflict -> ()
  | 0 -> t.root_conflict <- true
  | 1 ->
      let p = t.clause_buf.(0) in
      if t.vals.(p) = -1 then t.root_conflict <- true
      else if t.vals.(p) = 0 then enqueue t p (-1)
  | len -> ignore (append_clause t t.clause_buf len)

let of_cnf (f : Cnf.t) =
  let t = create ~n_vars:f.Cnf.n_vars in
  List.iter (add_clause t) f.Cnf.clauses;
  t

(* The Luby sequence 1, 1, 2, 1, 1, 2, 4, ...; [luby i] is term [i]. *)
let luby i =
  let size = ref 1 and seq = ref 0 in
  while !size < i + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref i in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let rec pick_branch t =
  if t.heap_len = 0 then -1
  else
    let v = heap_pop t in
    if t.vals.(2 * v) = 0 then v else pick_branch t

let solve ?(budget = Harness.Budget.unlimited ()) t =
  if t.solved then invalid_arg "Cdcl.solve: the solver was already used";
  t.solved <- true;
  let tick () = Harness.Budget.tick ~site:Harness.Sites.dpll budget in
  tick ();
  let restarts = ref 0 and until_restart = ref restart_unit in
  let rec search () =
    let confl = propagate t in
    if confl >= 0 then begin
      tick ();
      if t.decision_level = 0 then Unsat
      else begin
        cancel_until t (analyze t confl);
        learn t;
        t.var_inc <- t.var_inc /. decay;
        decr until_restart;
        search ()
      end
    end
    else if !until_restart <= 0 then begin
      incr restarts;
      until_restart := luby !restarts * restart_unit;
      cancel_until t 0;
      search ()
    end
    else
      match pick_branch t with
      | -1 -> Sat (Array.init (t.n_vars + 1) (fun v -> v > 0 && t.vals.(2 * v) = 1))
      | v ->
          tick ();
          t.trail_lim.(t.decision_level) <- t.trail_len;
          t.decision_level <- t.decision_level + 1;
          enqueue t (if t.phase.(v) then 2 * v else (2 * v) + 1) (-1);
          search ()
  in
  if t.root_conflict then begin
    tick ();
    Unsat
  end
  else search ()
