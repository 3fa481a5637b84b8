type t = { root : Node.t; branching : int; count : int }

let branching t = t.branching
let root_digest t = Node.digest t.root
let size t = t.count
let root t = t.root
let find t key = Node.find t.root key
let mem t key = Option.is_some (find t key)

let set t ~key ~value =
  let existed = mem t key in
  let root =
    match Node.insert ~branching:t.branching t.root ~key ~value with
    | Node.Ok_one n -> n
    | Node.Split (l, sep, r) -> Node.make_node [| sep |] [| l; r |]
  in
  { t with root; count = (if existed then t.count else t.count + 1) }

let remove t key =
  match Node.delete ~branching:t.branching t.root ~key with
  | None -> t
  | Some root -> { t with root = Node.collapse_root root; count = t.count - 1 }

let set_many t entries =
  match entries with
  | [] -> t
  | _ ->
      let seen = Hashtbl.create 16 in
      let added =
        List.fold_left
          (fun acc (k, _) ->
            if Hashtbl.mem seen k then acc
            else begin
              Hashtbl.add seen k ();
              if mem t k then acc else acc + 1
            end)
          0 entries
      in
      {
        t with
        root = Node.insert_many ~branching:t.branching t.root entries;
        count = t.count + added;
      }

let range t ~lo ~hi = Node.range t.root ~lo ~hi
let to_alist t = Node.to_alist t.root
let keys t = List.map fst (to_alist t)

let of_sorted_array ?(branching = 16) entries =
  if branching < 4 then
    invalid_arg "Merkle_btree.of_sorted_array: branching must be >= 4";
  let root =
    Node.of_sorted_entries ~branching
      (Array.map (fun (key, value) -> Node.entry ~key ~value) entries)
  in
  { root; branching; count = Array.length entries }

let of_root ?(branching = 16) root =
  if branching < 4 then invalid_arg "Merkle_btree.of_root: branching must be >= 4";
  { root; branching; count = Node.entry_count root }

let of_alist ?branching entries =
  (* Later bindings win, as with a fold of [set]; the sorted dedup
     feeds the bottom-up bulk loader. *)
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) entries;
  let arr = Array.make (Hashtbl.length tbl) ("", "") in
  let i = ref 0 in
  Hashtbl.iter
    (fun k v ->
      arr.(!i) <- (k, v);
      incr i)
    tbl;
  Array.sort (fun (a, _) (b, _) -> String.compare a b) arr;
  of_sorted_array ?branching arr

let[@tcvs.lint.root "hot-path"] check_invariants t =
  match Node.check_invariants ~branching:t.branching t.root with
  | Error _ as e -> e
  | Ok () ->
      let n = Node.entry_count t.root in
      if n <> t.count then Error (Printf.sprintf "count mismatch: %d vs %d" t.count n)
      else Ok ()

let depth t = Node.depth t.root

(* Flip bytes in one stored value while leaving every digest (and the
   entry's cached value digest) untouched — the "bitrot" failure mode:
   the tree still *claims* the old bytes, so all digest arithmetic
   stays consistent and only recomputation from the raw values
   (check_invariants) can notice. Used by the Bitrot adversary and the
   sanitizer tests. *)
let debug_bitrot t =
  let rec corrupt (n : Node.t) : Node.t =
    match n with
    | Node.Leaf { entries; digest } when Array.length entries > 0 ->
        let entries = Array.copy entries in
        let e = entries.(0) in
        entries.(0) <- { e with Node.value = e.Node.value ^ "\x00bitrot" };
        Node.Leaf { entries; digest }
    | Node.Node { keys; children; digest } when Array.length children > 0 ->
        let children = Array.copy children in
        children.(0) <- corrupt children.(0);
        Node.Node { keys; children; digest }
    | Node.Leaf _ | Node.Node _ | Node.Stub _ -> n
  in
  { t with root = corrupt t.root }
