type t = { branching : int; boundaries : string array }

let strictly_increasing a =
  let ok = ref true in
  for i = 0 to Array.length a - 2 do
    if String.compare a.(i) a.(i + 1) >= 0 then ok := false
  done;
  !ok

(* Even split of the one-byte prefix space: always available, always
   strictly increasing for shards <= 256. *)
let byte_space_boundaries shards =
  Array.init (shards - 1) (fun i -> String.make 1 (Char.chr ((i + 1) * 256 / shards)))

let create ~branching ~shards ~keys =
  if shards < 1 || shards > Mtree.Vo.max_shards then
    invalid_arg (Printf.sprintf "Shard_map.create: shards outside 1..%d" Mtree.Vo.max_shards);
  if branching < 4 then invalid_arg "Shard_map.create: branching < 4";
  if shards = 1 then { branching; boundaries = [||] }
  else begin
    let distinct = Array.of_list (List.sort_uniq String.compare keys) in
    let n = Array.length distinct in
    let quantiles =
      if n < shards then [||]
      else Array.init (shards - 1) (fun i -> distinct.((i + 1) * n / shards))
    in
    let boundaries =
      if Array.length quantiles = shards - 1 && strictly_increasing quantiles then quantiles
      else byte_space_boundaries shards
    in
    { branching; boundaries }
  end

let branching t = t.branching
let shards t = Array.length t.boundaries + 1
let boundaries t = t.boundaries
let route t key = Mtree.Node.child_index t.boundaries key

let split t bindings =
  let buckets = Array.make (shards t) [] in
  List.iter
    (fun ((k, _) as b) ->
      let i = route t k in
      buckets.(i) <- b :: buckets.(i))
    bindings;
  Array.map List.rev buckets

let encode t =
  let w = Wire.W.create () in
  Wire.W.u16 w t.branching;
  Wire.W.u16 w (shards t);
  Array.iter (Wire.W.str w) t.boundaries;
  Wire.W.contents w

let decode s =
  Wire.decode s (fun r ->
      let branching = Wire.R.u16 r in
      let shards = Wire.R.u16 r in
      if shards < 1 || shards > Mtree.Vo.max_shards || branching < 4 then
        failwith "Shard_map.decode: bad header";
      let boundaries = Array.init (shards - 1) (fun _ -> Wire.R.str r) in
      if not (strictly_increasing boundaries) then
        failwith "Shard_map.decode: boundaries not sorted";
      { branching; boundaries })
