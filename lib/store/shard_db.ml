module T = Mtree.Merkle_btree
module Vo = Mtree.Vo

type t = { map : Shard_map.t; shards : T.t array }

(* [split] keeps each shard's bindings in order, so later bindings win
   per shard as they do in [T.of_alist]. *)
let of_map map initial =
  let branching = Shard_map.branching map in
  { map; shards = Array.map (T.of_alist ~branching) (Shard_map.split map initial) }

let create ?(branching = 16) ~shards initial =
  of_map (Shard_map.create ~branching ~shards ~keys:(List.map fst initial)) initial

let of_trees map trees =
  if Array.length trees <> Shard_map.shards map then
    invalid_arg "Shard_db.of_trees: shard count mismatch";
  { map; shards = trees }

let map t = t.map
let shard_count t = Array.length t.shards
let trees t = t.shards
let route t key = Shard_map.route t.map key
let size t = Array.fold_left (fun acc s -> acc + T.size s) 0 t.shards
let shard_roots t = Array.map T.root_digest t.shards

let root_digest t =
  if Array.length t.shards = 1 then T.root_digest t.shards.(0)
  else Vo.compose_root (Shard_map.boundaries t.map) (shard_roots t)

let with_shard t i tree =
  let shards = Array.copy t.shards in
  shards.(i) <- tree;
  { t with shards }

(* Mirrors [Sim.Oracle.trusted_answer], routed per shard. *)
let apply t (op : Vo.op) =
  match op with
  | Vo.Get k -> (t, Vo.Value (T.find t.shards.(route t k) k))
  | Vo.Set (k, v) ->
      let i = route t k in
      (with_shard t i (T.set t.shards.(i) ~key:k ~value:v), Vo.Updated)
  | Vo.Set_many _ ->
      let boundaries = Shard_map.boundaries t.map in
      let set_part acc i =
        match Vo.sub_op_for boundaries i op with
        | Vo.Set_many mine -> with_shard acc i (T.set_many acc.shards.(i) mine)
        | _ -> acc
      in
      (List.fold_left set_part t (Vo.shards_for boundaries op), Vo.Updated)
  | Vo.Remove k ->
      let i = route t k in
      (with_shard t i (T.remove t.shards.(i) k), Vo.Updated)
  | Vo.Range (lo, hi) ->
      let touched = Vo.shards_for (Shard_map.boundaries t.map) op in
      (t, Vo.Entries (List.concat_map (fun i -> T.range t.shards.(i) ~lo ~hi) touched))

let generate_vo t op =
  if Array.length t.shards = 1 then Vo.generate t.shards.(0) op
  else Vo.generate_sharded ~boundaries:(Shard_map.boundaries t.map) ~trees:t.shards op

let to_alist t = List.concat_map T.to_alist (Array.to_list t.shards)

let check_invariants t =
  let rec go i =
    if i = Array.length t.shards then Ok ()
    else begin
      match T.check_invariants t.shards.(i) with
      | Error e -> Error (Printf.sprintf "shard %d: %s" i e)
      | Ok () -> (
          match
            List.find_opt (fun k -> route t k <> i) (T.keys t.shards.(i))
          with
          | Some k -> Error (Printf.sprintf "shard %d: misrouted key %S" i k)
          | None -> go (i + 1))
    end
  in
  go 0

let debug_bitrot t =
  let rec go i =
    if i = Array.length t.shards then t
    else if T.size t.shards.(i) > 0 then with_shard t i (T.debug_bitrot t.shards.(i))
    else go (i + 1)
  in
  go 0
