type transaction = {
  seq : int;
  user : int;
  op : Mtree.Vo.op;
  issued_round : int;
  completed_round : int option;
  answer : Mtree.Vo.answer option;
  roots : (string * string) option;
}

(* Sequence numbers are dense (0 .. next_seq-1, assigned by [issue]),
   so a Hashtbl keyed by [seq] gives O(1) completion while
   [transactions] can still rebuild issue order by counting up.
   The previous representation was a list rewritten in full by every
   [complete], which made an N-transaction run quadratic. *)
type t = { by_seq : (int, transaction) Hashtbl.t; mutable next_seq : int }

let create () = { by_seq = Hashtbl.create 256; next_seq = 0 }

let op_label : Mtree.Vo.op -> string = function
  | Mtree.Vo.Get _ -> "get"
  | Mtree.Vo.Set _ -> "set"
  | Mtree.Vo.Set_many _ -> "set_many"
  | Mtree.Vo.Remove _ -> "remove"
  | Mtree.Vo.Range _ -> "range"

let trace_scope = Obs.Scope.(v "sim" / "txn")

let issue t ~user ~op ~round =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Hashtbl.replace t.by_seq seq
    { seq; user; op; issued_round = round; completed_round = None; answer = None; roots = None };
  if Obs.tracing () then
    Obs.Trace.emit ~scope:trace_scope ~at:round ~name:"issue"
      (Printf.sprintf "#%d user%d %s" seq user (op_label op));
  seq

let complete t ~seq ~round ~answer ?roots () =
  match Hashtbl.find_opt t.by_seq seq with
  | None -> invalid_arg "Trace.complete: unknown transaction"
  | Some tx ->
      if tx.completed_round <> None then
        invalid_arg "Trace.complete: transaction already completed";
      Hashtbl.replace t.by_seq seq
        { tx with completed_round = Some round; answer = Some answer; roots };
      if Obs.tracing () then
        Obs.Trace.emit ~scope:trace_scope ~dur:(round - tx.issued_round) ~at:round
          ~name:"complete"
          (Printf.sprintf "#%d user%d %s" seq tx.user (op_label tx.op))

let transactions t = List.init t.next_seq (fun seq -> Hashtbl.find t.by_seq seq)
let completed t = List.filter (fun tx -> tx.completed_round <> None) (transactions t)
let count t = t.next_seq

let completed_after t ~round ~user =
  List.length
    (List.filter
       (fun tx -> tx.user = user && tx.issued_round > round && tx.completed_round <> None)
       (transactions t))
