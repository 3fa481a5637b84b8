module T = Mtree.Merkle_btree
module Vo = Mtree.Vo

type verdict = {
  deviated : bool;
  first_deviation : Trace.transaction option;
}

let answers_equal (a : Vo.answer) (b : Vo.answer) =
  match (a, b) with
  | Vo.Value x, Vo.Value y -> x = y
  | Vo.Updated, Vo.Updated -> true
  | Vo.Entries x, Vo.Entries y -> x = y
  | (Vo.Value _ | Vo.Updated | Vo.Entries _), _ -> false

let trusted_answer db (op : Vo.op) =
  match op with
  | Vo.Get k -> (db, Vo.Value (T.find db k))
  | Vo.Set (k, v) -> (T.set db ~key:k ~value:v, Vo.Updated)
  | Vo.Set_many entries -> (T.set_many db entries, Vo.Updated)
  | Vo.Remove k -> (T.remove db k, Vo.Updated)
  | Vo.Range (lo, hi) -> (db, Vo.Entries (T.range db ~lo ~hi))

let replay_with ~init ~apply ~root trace =
  let db = ref init in
  let first_deviation = ref None in
  List.iter
    (fun (tx : Trace.transaction) ->
      match tx.answer with
      | None -> () (* incomplete: availability handled by the caller *)
      | Some reported ->
          let pre_root = root !db in
          let db', expected = apply !db tx.op in
          db := db';
          let roots_consistent =
            match tx.roots with
            | None -> true
            | Some (old_root, new_root) ->
                String.equal old_root pre_root && String.equal new_root (root !db)
          in
          if
            ((not (answers_equal expected reported)) || not roots_consistent)
            && !first_deviation = None
          then first_deviation := Some tx)
    (Trace.completed trace);
  {
    deviated = !first_deviation <> None;
    first_deviation = !first_deviation;
  }

let replay ?branching ~initial trace =
  replay_with
    ~init:(T.of_alist ?branching initial)
    ~apply:trusted_answer ~root:T.root_digest trace
