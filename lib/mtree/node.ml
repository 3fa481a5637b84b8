exception Insufficient_proof

(* Every leaf/node digest computation is one node (re)build — the
   quantity that scales Merkle maintenance cost. *)
let obs_scope = Obs.Scope.v "mtree"
let c_node_rebuilds = Obs.counter ~scope:obs_scope "node_rebuilds"

(* [vdigest] caches [Sha256.digest value]: leaf digests commit to the
   hash of each value, and caching it means rebuilding a leaf hashes
   only fixed-size 32-byte digests instead of re-hashing every value.
   The hashed encoding is unchanged — the cache is an in-memory
   representation detail only. *)
type entry = { key : string; value : string; vdigest : string }

let entry ~key ~value = { key; value; vdigest = Crypto.Sha256.digest value }

type t =
  | Leaf of { entries : entry array; digest : string }
  | Node of { keys : string array; children : t array; digest : string }
  | Stub of string

(* ---- Digests ------------------------------------------------------ *)

(* Length-framed concatenation makes the hashed encoding injective:
   without framing, ("ab","c") and ("a","bc") would collide. Framing
   is streamed straight into the SHA-256 context, so no intermediate
   Buffer→string copy is made before hashing. *)

let leaf_digest entries =
  Obs.incr c_node_rebuilds;
  let ctx = Crypto.Sha256.init () in
  Crypto.Sha256.feed ctx "L";
  for i = 0 to Array.length entries - 1 do
    let e = entries.(i) in
    Crypto.Sha256.add_framed ctx e.key;
    Crypto.Sha256.add_framed ctx e.vdigest
  done;
  Crypto.Sha256.finalize ctx

let node_digest keys children_digests =
  Obs.incr c_node_rebuilds;
  let ctx = Crypto.Sha256.init () in
  Crypto.Sha256.feed ctx "N";
  Array.iter (Crypto.Sha256.add_framed ctx) keys;
  Crypto.Sha256.feed ctx "|";
  Array.iter (Crypto.Sha256.add_framed ctx) children_digests;
  Crypto.Sha256.finalize ctx

let digest = function
  | Leaf { digest; _ } -> digest
  | Node { digest; _ } -> digest
  | Stub d -> d

let sorted_strictly cmp arr =
  let ok = ref true in
  for i = 0 to Array.length arr - 2 do
    if cmp arr.(i) arr.(i + 1) >= 0 then ok := false
  done;
  !ok

let make_leaf entries =
  assert (sorted_strictly (fun a b -> String.compare a.key b.key) entries);
  Leaf { entries; digest = leaf_digest entries }

let make_node keys children =
  assert (Array.length keys = Array.length children - 1);
  (* A one-child node is legal only transiently at the root during
     deletes; collapse_root removes it before the tree is exposed. *)
  assert (Array.length children >= 1);
  let digest = node_digest keys (Array.map digest children) in
  Node { keys; children; digest }

let empty_leaf = make_leaf [||]

(* ---- Occupancy bounds --------------------------------------------- *)

let max_leaf_entries ~branching = branching
let min_leaf_entries ~branching = max 1 (branching / 2)
let max_children ~branching = branching
let min_children ~branching = max 2 ((branching + 1) / 2)

(* ---- Search ------------------------------------------------------- *)

(* Child index for [key]: first i with key < keys.(i), else last child.
   Child i therefore covers [keys.(i-1), keys.(i)). *)
let child_index keys key =
  let n = Array.length keys in
  let rec go lo hi =
    (* Invariant: keys.(i) <= key for i < lo, key < keys.(i) for i >= hi. *)
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if String.compare key keys.(mid) < 0 then go lo mid else go (mid + 1) hi
    end
  in
  go 0 n

(* Position of [key] in a sorted entry array: [Found i] or [Missing i]
   where i is the insertion point. *)
type probe = Found of int | Missing of int

let probe_entries entries key =
  let n = Array.length entries in
  let rec go lo hi =
    if lo >= hi then Missing lo
    else begin
      let mid = (lo + hi) / 2 in
      let c = String.compare key entries.(mid).key in
      if c = 0 then Found mid else if c < 0 then go lo mid else go (mid + 1) hi
    end
  in
  go 0 n

let rec find t key =
  match t with
  | Stub _ -> raise Insufficient_proof
  | Leaf { entries; _ } -> (
      match probe_entries entries key with
      | Found i -> Some entries.(i).value
      | Missing _ -> None)
  | Node { keys; children; _ } -> find children.(child_index keys key) key

(* ---- Array helpers ------------------------------------------------ *)

let array_insert arr i v =
  let n = Array.length arr in
  let out = Array.make (n + 1) v in
  Array.blit arr 0 out 0 i;
  Array.blit arr i out (i + 1) (n - i);
  out

let array_remove arr i =
  let n = Array.length arr in
  let out = Array.sub arr 0 (n - 1) in
  Array.blit arr (i + 1) out i (n - 1 - i);
  out

let array_set arr i v =
  let out = Array.copy arr in
  out.(i) <- v;
  out

(* Replace element i by two elements. *)
let array_split_at arr i l r =
  let n = Array.length arr in
  let out = Array.make (n + 1) l in
  Array.blit arr 0 out 0 i;
  out.(i) <- l;
  out.(i + 1) <- r;
  Array.blit arr (i + 1) out (i + 2) (n - 1 - i);
  out

(* ---- Insert / update ---------------------------------------------- *)

type insert_result = Ok_one of t | Split of t * string * t

let rec insert ~branching t ~key ~value =
  match t with
  | Stub _ -> raise Insufficient_proof
  | Leaf { entries; _ } -> (
      let entries' =
        match probe_entries entries key with
        | Found i -> array_set entries i (entry ~key ~value)
        | Missing i -> array_insert entries i (entry ~key ~value)
      in
      let n = Array.length entries' in
      if n <= max_leaf_entries ~branching then Ok_one (make_leaf entries')
      else begin
        let mid = (n + 1) / 2 in
        let left = make_leaf (Array.sub entries' 0 mid) in
        let right = make_leaf (Array.sub entries' mid (n - mid)) in
        Split (left, entries'.(mid).key, right)
      end)
  | Node { keys; children; _ } -> (
      let i = child_index keys key in
      match insert ~branching children.(i) ~key ~value with
      | Ok_one child -> Ok_one (make_node keys (array_set children i child))
      | Split (l, sep, r) ->
          let keys' = array_insert keys i sep in
          let children' = array_split_at children i l r in
          let n = Array.length children' in
          if n <= max_children ~branching then Ok_one (make_node keys' children')
          else begin
            let mid = (n + 1) / 2 in
            let left = make_node (Array.sub keys' 0 (mid - 1)) (Array.sub children' 0 mid) in
            let right =
              make_node (Array.sub keys' mid (n - 1 - mid)) (Array.sub children' mid (n - mid))
            in
            Split (left, keys'.(mid - 1), right)
          end)

(* ---- Batched insertion -------------------------------------------- *)

(* A tree under batched mutation. Dirty subtrees ([Bleaf]/[Bnode])
   defer their digest until [seal]; [Sealed] subtrees are untouched
   and keep their cached digest. The structural steps are exactly
   those of [insert], so a sealed batch is node-for-node (and hence
   digest-for-digest) identical to a fold of single inserts — but
   each touched node is hashed once per batch, not once per key. *)
type builder =
  | Sealed of t
  | Bleaf of entry array
  | Bnode of string array * builder array

let unseal = function
  | Sealed (Leaf { entries; _ }) -> Bleaf entries
  | Sealed (Node { keys; children; _ }) ->
      Bnode (keys, Array.map (fun c -> Sealed c) children)
  | Sealed (Stub _) -> raise Insufficient_proof
  | (Bleaf _ | Bnode _) as b -> b

type binsert_result = Bok of builder | Bsplit of builder * string * builder

let rec binsert ~branching b ~key ~value =
  match unseal b with
  | Sealed _ -> assert false (* unseal never returns [Sealed] *)
  | Bleaf entries -> (
      let entries' =
        match probe_entries entries key with
        | Found i -> array_set entries i (entry ~key ~value)
        | Missing i -> array_insert entries i (entry ~key ~value)
      in
      let n = Array.length entries' in
      if n <= max_leaf_entries ~branching then Bok (Bleaf entries')
      else
        let mid = (n + 1) / 2 in
        Bsplit
          ( Bleaf (Array.sub entries' 0 mid),
            entries'.(mid).key,
            Bleaf (Array.sub entries' mid (n - mid)) ))
  | Bnode (keys, children) -> (
      let i = child_index keys key in
      match binsert ~branching children.(i) ~key ~value with
      | Bok child -> Bok (Bnode (keys, array_set children i child))
      | Bsplit (l, sep, r) ->
          let keys' = array_insert keys i sep in
          let children' = array_split_at children i l r in
          let n = Array.length children' in
          if n <= max_children ~branching then Bok (Bnode (keys', children'))
          else
            let mid = (n + 1) / 2 in
            Bsplit
              ( Bnode (Array.sub keys' 0 (mid - 1), Array.sub children' 0 mid),
                keys'.(mid - 1),
                Bnode (Array.sub keys' mid (n - 1 - mid), Array.sub children' mid (n - mid)) ))

let rec seal = function
  | Sealed t -> t
  | Bleaf entries -> make_leaf entries
  | Bnode (keys, children) -> make_node keys (Array.map seal children)

let insert_many ~branching t entries =
  match entries with
  | [] -> t
  | _ ->
      seal
        (List.fold_left
           (fun b (key, value) ->
             match binsert ~branching b ~key ~value with
             | Bok b -> b
             | Bsplit (l, sep, r) -> Bnode ([| sep |], [| l; r |]))
           (Sealed t) entries)

(* ---- Bottom-up bulk construction ---------------------------------- *)

(* Split sizes matching sequential ascending insertion: a node
   overflows at [cap + 1] items and splits into [(cap + 2) / 2] items
   (left, settled) and the rest (right, still growing). A bulk-built
   level therefore packs [(cap + 2) / 2] items per node with the
   remainder — at least [cap + 1 - (cap + 2) / 2], i.e. never
   underfull — in the last one. Matching the incremental shape keeps
   root digests identical to a fold of [insert] over sorted input. *)
let partition_sizes ~cap n =
  if n <= cap then [| n |]
  else begin
    let s = (cap + 2) / 2 in
    let k = (n - (cap + 1 - s)) / s in
    let sizes = Array.make (k + 1) s in
    sizes.(k) <- n - (k * s);
    sizes
  end

let of_sorted_entries ~branching entries =
  if not (sorted_strictly (fun a b -> String.compare a.key b.key) entries) then
    invalid_arg "Node.of_sorted_entries: keys not strictly increasing";
  if Array.length entries = 0 then empty_leaf
  else begin
    (* Each level is an array of (min key of subtree, subtree); the
       separator between adjacent siblings at any level is the minimal
       key of the right sibling's subtree. *)
    let level_of ~cap ~key_of ~node_of items =
      let sizes = partition_sizes ~cap (Array.length items) in
      let off = ref 0 in
      Array.map
        (fun sz ->
          let part = Array.sub items !off sz in
          off := !off + sz;
          (key_of part.(0), node_of part))
        sizes
    in
    let leaves =
      level_of ~cap:(max_leaf_entries ~branching)
        ~key_of:(fun e -> e.key)
        ~node_of:make_leaf entries
    in
    let rec build level =
      if Array.length level = 1 then snd level.(0)
      else
        build
          (level_of ~cap:(max_children ~branching) ~key_of:fst
             ~node_of:(fun part ->
               make_node
                 (Array.init (Array.length part - 1) (fun i -> fst part.(i + 1)))
                 (Array.map snd part))
             level)
    in
    build leaves
  end

(* ---- Delete ------------------------------------------------------- *)

let leaf_entries = function
  | Leaf { entries; _ } -> entries
  | Node _ | Stub _ -> raise Insufficient_proof

let node_parts = function
  | Node { keys; children; _ } -> (keys, children)
  | Leaf _ | Stub _ -> raise Insufficient_proof

let is_underfull ~branching = function
  | Leaf { entries; _ } -> Array.length entries < min_leaf_entries ~branching
  | Node { children; _ } -> Array.length children < min_children ~branching
  | Stub _ -> raise Insufficient_proof

let has_spare ~branching = function
  | Leaf { entries; _ } -> Array.length entries > min_leaf_entries ~branching
  | Node { children; _ } -> Array.length children > min_children ~branching
  | Stub _ -> raise Insufficient_proof

(* Rebalance child [i] of (keys, children), which is underfull, using
   an adjacent sibling. Returns the repaired (keys, children). *)
let rebalance ~branching keys children i =
  let child = children.(i) in
  let can_borrow_left = i > 0 && has_spare ~branching children.(i - 1) in
  let can_borrow_right =
    i < Array.length children - 1 && has_spare ~branching children.(i + 1)
  in
  match child with
  | Stub _ -> raise Insufficient_proof
  | Leaf { entries; _ } ->
      if can_borrow_left then begin
        let left = leaf_entries children.(i - 1) in
        let moved = left.(Array.length left - 1) in
        let left' = make_leaf (Array.sub left 0 (Array.length left - 1)) in
        let child' = make_leaf (array_insert entries 0 moved) in
        let keys' = array_set keys (i - 1) moved.key in
        (keys', array_set (array_set children (i - 1) left') i child')
      end
      else if can_borrow_right then begin
        let right = leaf_entries children.(i + 1) in
        let moved = right.(0) in
        let right' = make_leaf (Array.sub right 1 (Array.length right - 1)) in
        let child' = make_leaf (array_insert entries (Array.length entries) moved) in
        let keys' = array_set keys i right.(1).key in
        (keys', array_set (array_set children (i + 1) right') i child')
      end
      else if i > 0 then begin
        (* Merge with left sibling. *)
        let left = leaf_entries children.(i - 1) in
        let merged = make_leaf (Array.append left entries) in
        (array_remove keys (i - 1), array_remove (array_set children (i - 1) merged) i)
      end
      else begin
        let right = leaf_entries children.(i + 1) in
        let merged = make_leaf (Array.append entries right) in
        (array_remove keys i, array_remove (array_set children i merged) (i + 1))
      end
  | Node { keys = ckeys; children = cchildren; _ } ->
      if can_borrow_left then begin
        let lkeys, lchildren = node_parts children.(i - 1) in
        let moved_child = lchildren.(Array.length lchildren - 1) in
        let moved_key = lkeys.(Array.length lkeys - 1) in
        let left' =
          make_node
            (Array.sub lkeys 0 (Array.length lkeys - 1))
            (Array.sub lchildren 0 (Array.length lchildren - 1))
        in
        let child' =
          make_node (array_insert ckeys 0 keys.(i - 1)) (array_insert cchildren 0 moved_child)
        in
        let keys' = array_set keys (i - 1) moved_key in
        (keys', array_set (array_set children (i - 1) left') i child')
      end
      else if can_borrow_right then begin
        let rkeys, rchildren = node_parts children.(i + 1) in
        let moved_child = rchildren.(0) in
        let moved_key = rkeys.(0) in
        let right' =
          make_node
            (Array.sub rkeys 1 (Array.length rkeys - 1))
            (Array.sub rchildren 1 (Array.length rchildren - 1))
        in
        let child' =
          make_node
            (array_insert ckeys (Array.length ckeys) keys.(i))
            (array_insert cchildren (Array.length cchildren) moved_child)
        in
        let keys' = array_set keys i moved_key in
        (keys', array_set (array_set children (i + 1) right') i child')
      end
      else if i > 0 then begin
        let lkeys, lchildren = node_parts children.(i - 1) in
        let merged =
          make_node
            (Array.concat [ lkeys; [| keys.(i - 1) |]; ckeys ])
            (Array.append lchildren cchildren)
        in
        (array_remove keys (i - 1), array_remove (array_set children (i - 1) merged) i)
      end
      else begin
        let rkeys, rchildren = node_parts children.(i + 1) in
        let merged =
          make_node
            (Array.concat [ ckeys; [| keys.(i) |]; rkeys ])
            (Array.append cchildren rchildren)
        in
        (array_remove keys i, array_remove (array_set children i merged) (i + 1))
      end

let rec delete ~branching t ~key =
  match t with
  | Stub _ -> raise Insufficient_proof
  | Leaf { entries; _ } -> (
      match probe_entries entries key with
      | Missing _ -> None
      | Found i -> Some (make_leaf (array_remove entries i)))
  | Node { keys; children; _ } -> (
      let i = child_index keys key in
      match delete ~branching children.(i) ~key with
      | None -> None
      | Some child' ->
          if is_underfull ~branching child' then begin
            let keys', children' = rebalance ~branching keys (array_set children i child') i in
            Some (make_node keys' children')
          end
          else Some (make_node keys (array_set children i child')))

let rec collapse_root t =
  match t with
  | Node { children = [| only |]; _ } -> collapse_root only
  | Leaf _ | Node _ | Stub _ -> t

(* ---- Range, counting, listing ------------------------------------- *)

(* Deep-lint justification (amortized builder): the list being consed
   IS the range answer — allocation is O(result), not overhead, and
   the accumulator refs live only for the traversal. *)
let[@tcvs.lint.allow "hot-path-alloc"] range t ~lo ~hi =
  let rec go t acc =
    match t with
    | Stub _ -> raise Insufficient_proof
    | Leaf { entries; _ } ->
        let acc = ref acc in
        for i = Array.length entries - 1 downto 0 do
          let e = entries.(i) in
          if String.compare e.key lo >= 0 && String.compare e.key hi <= 0 then
            acc := (e.key, e.value) :: !acc
        done;
        !acc
    | Node { keys; children; _ } ->
        let first = child_index keys lo and last = child_index keys hi in
        let acc = ref acc in
        for i = last downto first do
          acc := go children.(i) !acc
        done;
        !acc
  in
  go t []

let rec entry_count = function
  | Stub _ -> raise Insufficient_proof
  | Leaf { entries; _ } -> Array.length entries
  | Node { children; _ } -> Array.fold_left (fun acc c -> acc + entry_count c) 0 children

let to_alist t =
  let rec go t acc =
    match t with
    | Stub _ -> raise Insufficient_proof
    | Leaf { entries; _ } ->
        let acc = ref acc in
        for i = Array.length entries - 1 downto 0 do
          let e = entries.(i) in
          acc := (e.key, e.value) :: !acc
        done;
        !acc
    | Node { children; _ } ->
        let acc = ref acc in
        for i = Array.length children - 1 downto 0 do
          acc := go children.(i) !acc
        done;
        !acc
  in
  go t []

let rec depth = function
  | Stub _ -> 0
  | Leaf _ -> 1
  | Node { children; _ } -> 1 + depth children.(0)

(* ---- Validation ---------------------------------------------------- *)

let check_invariants ~branching t =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec leaf_depths = function
    | Stub _ -> []
    | Leaf _ -> [ 1 ]
    | Node { children; _ } ->
        List.concat_map (fun c -> List.map succ (leaf_depths c)) (Array.to_list children)
  in
  let rec check ~is_root ~lo ~hi t =
    let in_bounds k =
      (match lo with None -> true | Some l -> String.compare k l >= 0)
      && match hi with None -> true | Some h -> String.compare k h < 0
    in
    match t with
    | Stub _ -> Ok ()
    | Leaf { entries; digest } ->
        if not (sorted_strictly (fun a b -> String.compare a.key b.key) entries) then
          fail "leaf entries not strictly sorted"
        else if not (Array.for_all (fun e -> in_bounds e.key) entries) then
          fail "leaf entry violates separator bounds"
        else if (not is_root) && Array.length entries < min_leaf_entries ~branching then
          fail "leaf underfull (%d entries)" (Array.length entries)
        else if Array.length entries > max_leaf_entries ~branching then
          fail "leaf overfull (%d entries)" (Array.length entries)
        else if
          not (Array.for_all (fun e -> String.equal e.vdigest (Crypto.Sha256.digest e.value)) entries)
        then fail "entry value-digest cache inconsistent"
        else if not (String.equal digest (leaf_digest entries)) then fail "leaf digest mismatch"
        else Ok ()
    | Node { keys; children; digest } ->
        let n = Array.length children in
        if Array.length keys <> n - 1 then fail "key/child count mismatch"
        else if not (sorted_strictly String.compare keys) then fail "node keys not sorted"
        else if not (Array.for_all in_bounds keys) then fail "separator violates bounds"
        else if (not is_root) && n < min_children ~branching then
          fail "node underfull (%d children)" n
        else if n > max_children ~branching then fail "node overfull (%d children)" n
        else if
          not
            (String.equal digest
               (node_digest keys (Array.map (fun c -> (digest_of c : string)) children)))
        then fail "node digest mismatch"
        else begin
          let rec check_children i acc =
            if i >= n then acc
            else begin
              let lo' = if i = 0 then lo else Some keys.(i - 1) in
              let hi' = if i = n - 1 then hi else Some keys.(i) in
              match check ~is_root:false ~lo:lo' ~hi:hi' children.(i) with
              | Error _ as e -> e
              | Ok () -> check_children (i + 1) acc
            end
          in
          check_children 0 (Ok ())
        end
  and digest_of t = digest t in
  match check ~is_root:true ~lo:None ~hi:None t with
  | Error _ as e -> e
  | Ok () -> (
      match List.sort_uniq Int.compare (leaf_depths t) with
      | [] | [ _ ] -> Ok ()
      | _ -> fail "leaves at differing depths")
