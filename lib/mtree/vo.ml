type op =
  | Get of string
  | Set of string * string
  | Set_many of (string * string) list
  | Remove of string
  | Range of string * string

(* Tags are frozen: WAL op records and network frames both carry this
   encoding. *)
let encode_op w op =
  match op with
  | Get k ->
      Wire.W.u8 w 0;
      Wire.W.str w k
  | Set (k, v) ->
      Wire.W.u8 w 1;
      Wire.W.str w k;
      Wire.W.str w v
  | Set_many entries ->
      Wire.W.u8 w 2;
      Wire.W.list w
        (fun (k, v) ->
          Wire.W.str w k;
          Wire.W.str w v)
        entries
  | Remove k ->
      Wire.W.u8 w 3;
      Wire.W.str w k
  | Range (lo, hi) ->
      Wire.W.u8 w 4;
      Wire.W.str w lo;
      Wire.W.str w hi

let decode_op r =
  match Wire.R.u8 r with
  | 0 -> Get (Wire.R.str r)
  | 1 ->
      let k = Wire.R.str r in
      Set (k, Wire.R.str r)
  | 2 ->
      Set_many
        (Wire.R.list r (fun r ->
             let k = Wire.R.str r in
             (k, Wire.R.str r)))
  | 3 -> Remove (Wire.R.str r)
  | 4 ->
      let lo = Wire.R.str r in
      Range (lo, Wire.R.str r)
  | n -> failwith (Printf.sprintf "unknown op tag %d" n)

type answer =
  | Value of string option
  | Updated
  | Entries of (string * string) list

(* A flat VO is the classic pruned tree. A sharded VO carries one
   pruned proof per shard (off-path shards collapse to a stub of their
   root) plus the shard boundaries; its root is the digest of the
   one-level composition node over the shard roots. *)
type body =
  | Flat of Node.t
  | Sharded of { boundaries : string array; parts : Node.t array }

type t = { branching : int; body : body }

type error = Insufficient | Malformed of string

let pp_error fmt = function
  | Insufficient -> Format.pp_print_string fmt "insufficient proof (replay hit a pruned subtree)"
  | Malformed m -> Format.fprintf fmt "malformed verification object: %s" m


let root_node t =
  match t.body with
  | Flat proof -> proof
  | Sharded { boundaries; parts } -> Node.make_node boundaries parts

let of_node ~branching proof = { branching; body = Flat proof }
let is_flat t = match t.body with Flat _ -> true | Sharded _ -> false

let compose_root boundaries part_digests =
  let n = Array.length part_digests in
  let stubs = Array.make n (Node.Stub "") in
  for i = 0 to n - 1 do
    stubs.(i) <- Node.Stub part_digests.(i)
  done;
  Node.digest (Node.make_node boundaries stubs)

let obs_scope = Obs.Scope.v "mtree"
let c_vo_generated = Obs.counter ~scope:obs_scope "vo_generated"
let c_vo_replays = Obs.counter ~scope:obs_scope "vo_replays"
let h_vo_bytes = Obs.histogram ~scope:obs_scope "vo_bytes"
let h_proof_depth = Obs.histogram ~scope:obs_scope "proof_depth"

(* ---- Pruning (server side) ---------------------------------------- *)

let stub_of n = Node.Stub (Node.digest n)

(* Keep a node's own content but replace its children by stubs; the
   digest is unchanged because node digests commit to child digests. *)
let shallow (n : Node.t) : Node.t =
  match n with
  | Node.Leaf _ | Node.Stub _ -> n
  | Node.Node { keys; children; digest } ->
      Node.Node { keys; children = Array.map stub_of children; digest }

(* Prune around the union of the search paths of [keys].
   [with_siblings] additionally materialises (one level deep) the
   siblings adjacent to any path, which is what a delete's borrow/merge
   may read. *)
let rec prune_paths ~with_siblings (n : Node.t) lookup_keys : Node.t =
  match n with
  | Node.Leaf _ | Node.Stub _ -> n
  | Node.Node { keys; children; digest } ->
      let routes = List.map (fun k -> (Node.child_index keys k, k)) lookup_keys in
      let children =
        Array.mapi
          (fun j c ->
            let mine = List.filter_map (fun (i, k) -> if i = j then Some k else None) routes in
            if mine <> [] then prune_paths ~with_siblings c mine
            else if with_siblings && List.exists (fun (i, _) -> abs (j - i) = 1) routes then
              shallow c
            else stub_of c)
          children
      in
      Node.Node { keys; children; digest }

let prune_path ~with_siblings n key = prune_paths ~with_siblings n [ key ]

let rec prune_range (n : Node.t) ~lo ~hi : Node.t =
  match n with
  | Node.Leaf _ | Node.Stub _ -> n
  | Node.Node { keys; children; digest } ->
      let first = Node.child_index keys lo and last = Node.child_index keys hi in
      let children =
        Array.mapi
          (fun j c -> if j >= first && j <= last then prune_range c ~lo ~hi else stub_of c)
          children
      in
      Node.Node { keys; children; digest }

(* Arithmetic mirror of [encode_node]: walking the proof is O(nodes)
   and allocation-free, where materialising the encoding just to take
   its length copied every key and value. *)
let rec encoded_size_node = function
  | Node.Stub _ -> 1 + 32
  | Node.Leaf { entries; _ } ->
      Array.fold_left
        (fun acc (e : Node.entry) -> acc + 8 + String.length e.key + String.length e.value)
        (1 + 2) entries
  | Node.Node { keys; children; _ } ->
      let acc =
        Array.fold_left (fun acc k -> acc + 4 + String.length k) (1 + 2) keys
      in
      Array.fold_left (fun acc c -> acc + encoded_size_node c) acc children

let size_bytes t =
  match t.body with
  | Flat proof -> 3 + encoded_size_node proof
  | Sharded { boundaries; parts } ->
      let acc =
        Array.fold_left (fun acc b -> acc + 4 + String.length b) (3 + 1 + 2) boundaries
      in
      Array.fold_left (fun acc p -> acc + encoded_size_node p) acc parts

(* Pruned proof of one tree around the access path of [op]. *)
let prune_for_op root (op : op) =
  match op with
  | Get key | Set (key, _) -> prune_path ~with_siblings:false root key
  | Set_many entries -> prune_paths ~with_siblings:false root (List.map fst entries)
  | Remove key -> prune_path ~with_siblings:true root key
  | Range (lo, hi) -> prune_range root ~lo ~hi

let record_generated vo =
  Obs.incr c_vo_generated;
  Obs.observe h_vo_bytes (size_bytes vo);
  Obs.observe h_proof_depth (Node.depth (root_node vo))

let generate tree op =
  let proof = prune_for_op (Merkle_btree.root tree) op in
  let vo = { branching = Merkle_btree.branching tree; body = Flat proof } in
  record_generated vo;
  vo

(* One bit per shard in [shard_mask]'s immediate int: the cap on every
   shard count, far above any deployed configuration. *)
let max_shards = 61

(* Which shards does [op] touch, as a bitmask (bit i = shard i)? Same
   routing the replay uses, in one immediate int — no per-op list. *)
let shard_mask boundaries (op : op) =
  if Array.length boundaries >= max_shards then invalid_arg "Vo.shard_mask: more than 61 shards";
  match op with
  | Get key | Set (key, _) | Remove key -> 1 lsl Node.child_index boundaries key
  | Set_many entries ->
      let rec gather acc entries =
        match entries with
        | [] -> acc
        | (k, _) :: tl -> gather (acc lor (1 lsl Node.child_index boundaries k)) tl
      in
      gather 0 entries
  | Range (lo, hi) ->
      let first = Node.child_index boundaries lo
      and last = Node.child_index boundaries hi in
      ((1 lsl (last - first + 1)) - 1) lsl first

(* Which shards does [op] touch, ascending? List-building wrapper over
   [shard_mask] for the callers that fan an op out; the replay path
   below sticks to the mask. *)
let shards_for boundaries (op : op) =
  let mask = shard_mask boundaries op in
  let rec bits i acc =
    if i < 0 then acc
    else bits (i - 1) (if mask land (1 lsl i) <> 0 then i :: acc else acc)
  in
  bits (Array.length boundaries) []

(* Keys of a [Set_many] that shard [i] owns, order preserved. Returns
   the argument itself when every key routes to [i] — the common case
   under partitioned writers — so cross-shard batches are the only
   ones that pay for a rebuilt list. *)
let[@tcvs.lint.allow "hot-path-alloc"] restrict_entries boundaries i entries =
  let rec all_mine = function
    | [] -> true
    | (k, _) :: tl -> Node.child_index boundaries k = i && all_mine tl
  in
  if all_mine entries then entries
  else List.filter (fun (k, _) -> Node.child_index boundaries k = i) entries

(* Restrict a [Set_many] to the keys shard [i] owns; order preserved. *)
let sub_op_for boundaries i (op : op) =
  match op with
  | Set_many entries -> Set_many (restrict_entries boundaries i entries)
  | Get _ | Set _ | Remove _ | Range _ -> op

let generate_sharded ~boundaries ~trees op =
  if Array.length trees < 2 then invalid_arg "Vo.generate_sharded: need >= 2 shards";
  if Array.length boundaries <> Array.length trees - 1 then
    invalid_arg "Vo.generate_sharded: boundaries/shards mismatch";
  let branching = Merkle_btree.branching trees.(0) in
  let mask = shard_mask boundaries op in
  let parts =
    Array.mapi
      (fun i tree ->
        let root = Merkle_btree.root tree in
        if mask land (1 lsl i) <> 0 then
          prune_for_op root (sub_op_for boundaries i op)
        else Node.Stub (Node.digest root))
      trees
  in
  let vo = { branching; body = Sharded { boundaries; parts } } in
  record_generated vo;
  vo

(* Pure constructor for a router composing a sharded VO out of one
   shard daemon's flat proof plus stubs of the other shard roots. Built
   to be byte-identical to [generate_sharded] over the same tree
   states, so a cluster and a single sharded daemon encode the same
   proof for the same op. *)
let of_parts ~branching ~boundaries ~parts =
  if Array.length parts < 2 then invalid_arg "Vo.of_parts: need >= 2 parts";
  if Array.length boundaries <> Array.length parts - 1 then
    invalid_arg "Vo.of_parts: boundaries/parts mismatch";
  { branching; body = Sharded { boundaries; parts } }

(* ---- Replay (client side) ----------------------------------------- *)

(* Flat replay of [op] on one pruned tree: the answer and the tree's
   new root digest. *)
let replay_flat ~branching proof op =
  let old_root = Node.digest proof in
  match op with
  | Get key -> (Value (Node.find proof key), old_root)
  | Range (lo, hi) -> (Entries (Node.range proof ~lo ~hi), old_root)
  | Set (key, value) -> (
      match Node.insert ~branching proof ~key ~value with
      | Node.Ok_one n -> (Updated, Node.digest n)
      | Node.Split (l, sep, r) ->
          (Updated, Node.digest (Node.make_node [| sep |] [| l; r |])))
  | Set_many entries ->
      (* Path-sharing batch replay: shared upper levels of the pruned
         tree are re-hashed once for the whole batch. *)
      (Updated, Node.digest (Node.insert_many ~branching proof entries))
  | Remove key -> (
      match Node.delete ~branching proof ~key with
      | None -> (Updated, old_root)
      | Some n -> (Updated, Node.digest (Node.collapse_root n)))

(* Replay every touched shard in [mask] ascending ([i] tracks the
   current bit), writing updated shard digests into [new_digests];
   returns the lowest touched shard's answer (single-path ops touch
   exactly one shard; a cross-shard [Set_many] answers [Updated] on
   every shard). *)
let rec replay_touched ~branching ~boundaries ~parts ~new_digests op mask i answer =
  if mask = 0 then answer
  else if mask land 1 = 0 then
    replay_touched ~branching ~boundaries ~parts ~new_digests op (mask lsr 1) (i + 1)
      answer
  else begin
    let a, new_d = replay_flat ~branching parts.(i) (sub_op_for boundaries i op) in
    new_digests.(i) <- new_d;
    let answer = match answer with None -> Some a | Some _ -> answer in
    replay_touched ~branching ~boundaries ~parts ~new_digests op (mask lsr 1) (i + 1)
      answer
  end

(* Shards partition the key space in order, so per-shard range results
   concatenate ascending. The entries list IS the answer, so this path
   allocates by construction. *)
let[@tcvs.lint.allow "hot-path-alloc"] replay_range ~branching ~parts ~new_digests
    ~lo ~hi mask =
  let rec go mask i =
    if mask = 0 then []
    else if mask land 1 = 0 then go (mask lsr 1) (i + 1)
    else begin
      let a, new_d = replay_flat ~branching parts.(i) (Range (lo, hi)) in
      new_digests.(i) <- new_d;
      let rest = go (mask lsr 1) (i + 1) in
      match a with Entries es -> es @ rest | Value _ | Updated -> rest
    end
  in
  go mask 0

let replay_sharded_masked ~branching ~boundaries ~parts ~new_digests op mask =
  match op with
  | Get _ | Set _ | Set_many _ | Remove _ -> (
      match
        replay_touched ~branching ~boundaries ~parts ~new_digests op mask 0 None
      with
      | Some a -> a
      | None -> Updated (* Set_many [] touches no shard *))
  | Range (lo, hi) -> Entries (replay_range ~branching ~parts ~new_digests ~lo ~hi mask)

(* Sharded replay: route the operation to its shards, replay each
   owning part flat, then recompose the shard roots under the same
   one-level composition node the server signs. The composition is
   deliberately NOT an ordinary B⁺-node insert: a shard-root split must
   stay inside the shard (mirroring the server's independent trees),
   never be absorbed into the composition level. *)
let replay_sharded ~branching ~boundaries ~parts op =
  let old_digests = Array.map Node.digest parts in
  let old_root = compose_root boundaries old_digests in
  let mask = shard_mask boundaries op in
  let new_digests = Array.copy old_digests in
  let answer =
    replay_sharded_masked ~branching ~boundaries ~parts ~new_digests op mask
  in
  (answer, old_root, compose_root boundaries new_digests)

let[@tcvs.lint.root "hot-path"] apply t op =
  Obs.incr c_vo_replays;
  match
    match t.body with
    | Flat proof ->
        let old_root = Node.digest proof in
        let answer, new_root = replay_flat ~branching:t.branching proof op in
        (answer, old_root, new_root)
    | Sharded { boundaries; parts } ->
        replay_sharded ~branching:t.branching ~boundaries ~parts op
  with
  | result -> Ok result
  | exception Node.Insufficient_proof -> Error Insufficient

(* ---- Per-shard transition detail (Protocol IV) --------------------- *)

type shard_transition = { shard : int; old_digest : string; new_digest : string }

(* Like [apply], but additionally reports the (old, new) digest of
   every shard the operation touched — the per-shard root chain a
   wait-free verifier witnesses. A flat VO is a single shard 0. *)
let apply_detail t op =
  Obs.incr c_vo_replays;
  match
    match t.body with
    | Flat proof ->
        let old_root = Node.digest proof in
        let answer, new_root = replay_flat ~branching:t.branching proof op in
        ( answer,
          old_root,
          new_root,
          [ { shard = 0; old_digest = old_root; new_digest = new_root } ] )
    | Sharded { boundaries; parts } ->
        let old_digests = Array.map Node.digest parts in
        let old_root = compose_root boundaries old_digests in
        let mask = shard_mask boundaries op in
        let new_digests = Array.copy old_digests in
        let answer =
          replay_sharded_masked ~branching:t.branching ~boundaries ~parts
            ~new_digests op mask
        in
        let rec transitions i acc =
          if i < 0 then acc
          else
            transitions (i - 1)
              (if mask land (1 lsl i) <> 0 then
                 {
                   shard = i;
                   old_digest = old_digests.(i);
                   new_digest = new_digests.(i);
                 }
                 :: acc
               else acc)
        in
        ( answer,
          old_root,
          compose_root boundaries new_digests,
          transitions (Array.length parts - 1) [] )
  with
  | result -> Ok result
  | exception Node.Insufficient_proof -> Error Insufficient

(* ---- Statistics ---------------------------------------------------- *)

let rec stub_count_node = function
  | Node.Stub _ -> 1
  | Node.Leaf _ -> 0
  | Node.Node { children; _ } ->
      Array.fold_left (fun acc c -> acc + stub_count_node c) 0 children

let fold_parts f t =
  match t.body with
  | Flat proof -> f proof
  | Sharded { parts; _ } -> Array.fold_left (fun acc p -> acc + f p) 0 parts

let stub_count t = fold_parts stub_count_node t

let rec materialized_nodes_node = function
  | Node.Stub _ -> 0
  | Node.Leaf _ -> 1
  | Node.Node { children; _ } ->
      Array.fold_left (fun acc c -> acc + materialized_nodes_node c) 1 children

let materialized_nodes t = fold_parts materialized_nodes_node t

(* ---- Wire format ---------------------------------------------------

   header: 'V' u16(branching)
   body:   node
         | 'H' u16(nparts) { frame(boundary) }*   (nparts-1 boundaries)
               { node }+                          (nparts shard proofs)
   node:   'S' 32-byte digest
         | 'L' u16(count) { frame(key) frame(value) }*
         | 'N' u16(nkeys) { frame(key) }* { node }+   (nkeys+1 children)
   frame:  u32(len) bytes *)

let put_u16 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let put_u32 buf v =
  put_u16 buf ((v lsr 16) land 0xffff);
  put_u16 buf (v land 0xffff)

let put_frame buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let rec encode_node buf = function
  | Node.Stub d ->
      Buffer.add_char buf 'S';
      Buffer.add_string buf d
  | Node.Leaf { entries; _ } ->
      Buffer.add_char buf 'L';
      put_u16 buf (Array.length entries);
      Array.iter
        (fun (e : Node.entry) ->
          put_frame buf e.key;
          put_frame buf e.value)
        entries
  | Node.Node { keys; children; _ } ->
      Buffer.add_char buf 'N';
      put_u16 buf (Array.length keys);
      Array.iter (put_frame buf) keys;
      Array.iter (encode_node buf) children

let encode t =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf 'V';
  put_u16 buf t.branching;
  (match t.body with
  | Flat proof -> encode_node buf proof
  | Sharded { boundaries; parts } ->
      Buffer.add_char buf 'H';
      put_u16 buf (Array.length parts);
      Array.iter (put_frame buf) boundaries;
      Array.iter (encode_node buf) parts);
  Buffer.contents buf

exception Decode_error of string

let decode s =
  let pos = ref 0 in
  let need n =
    if !pos + n > String.length s then raise (Decode_error "truncated");
    let start = !pos in
    pos := !pos + n;
    start
  in
  let get_char () = s.[need 1] in
  let get_u16 () =
    let i = need 2 in
    (Char.code s.[i] lsl 8) lor Char.code s.[i + 1]
  in
  let get_u32 () =
    let hi = get_u16 () in
    (hi lsl 16) lor get_u16 ()
  in
  let get_frame () =
    let n = get_u32 () in
    let i = need n in
    String.sub s i n
  in
  let rec node () =
    match get_char () with
    | 'S' ->
        let i = need 32 in
        Node.Stub (String.sub s i 32)
    | 'L' ->
        let count = get_u16 () in
        let entries =
          Array.init count (fun _ ->
              let key = get_frame () in
              let value = get_frame () in
              (* [Node.entry] recomputes the value digest, so decoded
                 leaves re-derive every digest from the wire bytes. *)
              Node.entry ~key ~value)
        in
        if not (Array.for_all Fun.id
                  (Array.init (max 0 (count - 1)) (fun i ->
                       String.compare entries.(i).key entries.(i + 1).key < 0)))
        then raise (Decode_error "leaf entries not sorted");
        Node.make_leaf entries
    | 'N' ->
        let nkeys = get_u16 () in
        let keys = Array.init nkeys (fun _ -> get_frame ()) in
        let children = Array.init (nkeys + 1) (fun _ -> node ()) in
        Node.make_node keys children
    | _ -> raise (Decode_error "bad node tag")
  in
  match
    if get_char () <> 'V' then raise (Decode_error "bad header");
    let branching = get_u16 () in
    let body =
      if !pos < String.length s && s.[!pos] = 'H' then begin
        pos := !pos + 1;
        let nparts = get_u16 () in
        if nparts < 2 then raise (Decode_error "sharded VO needs >= 2 parts");
        let boundaries = Array.init (nparts - 1) (fun _ -> get_frame ()) in
        if
          not
            (Array.for_all Fun.id
               (Array.init (max 0 (nparts - 2)) (fun i ->
                    String.compare boundaries.(i) boundaries.(i + 1) < 0)))
        then raise (Decode_error "shard boundaries not sorted");
        let parts = Array.init nparts (fun _ -> node ()) in
        Sharded { boundaries; parts }
      end
      else Flat (node ())
    in
    if !pos <> String.length s then raise (Decode_error "trailing bytes");
    if branching < 4 then raise (Decode_error "bad branching");
    { branching; body }
  with
  | t -> Some t
  | exception Decode_error _ -> None
  | exception Assert_failure _ -> None
