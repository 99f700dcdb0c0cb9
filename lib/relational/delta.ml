type op = Insert of Fact.t | Retract of Fact.t
type t = op list

let fact_of = function Insert f | Retract f -> f

let op_name = function Insert _ -> "insert" | Retract _ -> "retract"

let pp_op ppf op =
  Format.fprintf ppf "%s %a" (op_name op) Fact.pp (fact_of op)

let pp ppf ops =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_op)
    ops

let apply db ops =
  List.fold_left
    (fun db -> function
      | Insert f -> Database.add db f
      | Retract f -> Database.remove db f)
    db ops

(* Sequential application is last-op-wins per fact: [add]/[remove] are
   idempotent and membership-driven, so the final membership of a fact
   mentioned by the delta is decided by the last op naming it, and facts
   the delta never names are untouched. One [Fact.Map] overlay therefore
   captures the whole trace. Inserts are validated op by op (not just the
   net ones) so the normalized view raises exactly when [apply] would. *)
let normalize db ops =
  let final =
    List.fold_left
      (fun acc op ->
        (match op with Insert f -> Database.check_fact db f | Retract _ -> ());
        Fact.Map.add (fact_of op) (match op with Insert _ -> true | Retract _ -> false) acc)
      Fact.Map.empty ops
  in
  (* [Fact.Map.fold] visits facts in increasing [Fact.compare] order; the
     accumulated lists come out descending and are reversed once. *)
  let ins, rets =
    Fact.Map.fold
      (fun f present (ins, rets) ->
        match (present, Database.mem db f) with
        | true, false -> (f :: ins, rets)
        | false, true -> (ins, f :: rets)
        | _ -> (ins, rets))
      final ([], [])
  in
  (List.rev ins, List.rev rets)
