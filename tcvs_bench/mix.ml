(* The four traffic mixes and their seeded operation streams.

   Every workload serves the same 4096-file database (branching 8).
   Each connection draws its operations from its own split of the run
   seed, so a seed fixes every operation a run sends. *)

module Vo = Mtree.Vo
module Harness = Tcvs.Harness

type topology = Single | Cluster

type ops =
  | Point of { write_frac : float; zipf_s : float }
      (** Get/Set over Zipf-ranked keys; Set rewrites at the seeded length *)
  | Durable_rw of { write_frac : float; value_bytes : int; preload_keys : int }
      (** preload every key with [value_bytes] values in [Set_many]s of
          [preload_keys], then uniform Get/Set of [value_bytes] *)
  | Scan of { range_keys : int; commit_frac : float; commit_keys : int }
      (** [Range] over consecutive keys (a directory checkout) or a
          [Set_many] of consecutive keys at the seeded length (a commit) *)

(* Why each workload exists is recorded in BENCHMARK.json and
   README.md. *)
type t = {
  name : string;
  topology : topology;
  shards : int;  (** internal shards of one daemon, or shard daemons *)
  store : bool;  (** durable store: per-op durability, no fsync *)
  ops : ops;
}

let files = 4096
let branching = 8
let conns = 2
let checkpoint_every = 64

(* The point mix is the repo's CVS traffic model, the profile the CLI,
   the simulated experiments and the tests run (Schedule.default_profile:
   60% reads, Zipf s = 1.0). The store mixes below are stress mixes
   chosen to load one layer each; no measured CVS trace backs their
   parameters. *)
let point_ops =
  let p = Workload.Schedule.default_profile in
  Point { write_frac = 1. -. p.read_fraction; zipf_s = p.zipf_s }

let all =
  [
    {
      name = "point-mixed";
      topology = Single;
      shards = 2;
      store = false;
      ops = point_ops;
    };
    {
      name = "cluster-mixed";
      topology = Cluster;
      shards = 2;
      store = false;
      ops = point_ops;
    };
    {
      name = "commit-durable";
      topology = Single;
      shards = 4;
      store = true;
      ops = Durable_rw { write_frac = 0.5; value_bytes = 1024; preload_keys = 64 };
    };
    {
      name = "checkout-scan";
      topology = Single;
      shards = 4;
      store = true;
      ops = Scan { range_keys = 128; commit_frac = 0.1; commit_keys = 4 };
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
let names = List.map (fun w -> w.name) all

let topology_name = function Single -> "single" | Cluster -> "cluster"

let initial = Harness.initial_files files

let initial_root w =
  Store.Shard_db.root_digest (Store.Shard_db.create ~branching ~shards:w.shards initial)

(* Seeded writes keep each file at its initial length, so the database
   does not grow over a run. *)
let initial_len = Array.of_list (List.map (fun (_, v) -> String.length v) initial)

(* One conn's operation source. [preload_left] counts the ops of the
   preload phase that this connection has not yet issued. *)
type gen = { next : unit -> Vo.op; preload_left : unit -> int }

let generator w ~seed ~conn =
  let root = Crypto.Prng.create ~seed:("tcvs-bench/" ^ seed) in
  let rng = Crypto.Prng.split root ~label:(Printf.sprintf "conn-%d" conn) in
  (* values are windows into one seeded pool: cheap to draw, so the
     generator stays out of the measured client time *)
  let pool = Crypto.Prng.bytes (Crypto.Prng.split root ~label:"values") 8192 in
  let value len = String.sub pool (Crypto.Prng.int rng (String.length pool - len + 1)) len in
  let key = Harness.file_key in
  let no_preload () = 0 in
  match w.ops with
  | Point { write_frac; zipf_s } ->
      (* Hot files are scattered over the key space, not clustered in
         the first shard. Which files are hot is part of the workload,
         not of the seed: with a seeded hot set, run-to-run variation
         would mostly measure where the seed put the hottest key. *)
      let perm = Array.init files Fun.id in
      Crypto.Prng.shuffle (Crypto.Prng.create ~seed:"tcvs-bench/zipf-ranks") perm;
      let zipf = Workload.Zipf.create ~n:files ~s:zipf_s in
      let next () =
        let k = perm.(Workload.Zipf.sample zipf rng) in
        if Crypto.Prng.bernoulli rng ~p:write_frac then
          Vo.Set (key k, value initial_len.(k))
        else Vo.Get (key k)
      in
      { next; preload_left = no_preload }
  | Durable_rw { write_frac; value_bytes; preload_keys } ->
      let chunks = List.filter (fun c -> c mod conns = conn) (List.init (files / preload_keys) Fun.id) in
      let pending = ref chunks in
      let next () =
        match !pending with
        | c :: rest ->
            pending := rest;
            Vo.Set_many
              (List.init preload_keys (fun i -> (key ((c * preload_keys) + i), value value_bytes)))
        | [] ->
            let k = Crypto.Prng.int rng files in
            if Crypto.Prng.bernoulli rng ~p:write_frac then Vo.Set (key k, value value_bytes)
            else Vo.Get (key k)
      in
      { next; preload_left = (fun () -> List.length !pending) }
  | Scan { range_keys; commit_frac; commit_keys } ->
      let next () =
        if Crypto.Prng.bernoulli rng ~p:commit_frac then begin
          let k = Crypto.Prng.int rng (files - commit_keys + 1) in
          Vo.Set_many
            (List.init commit_keys (fun i -> (key (k + i), value initial_len.(k + i))))
        end
        else begin
          let k = Crypto.Prng.int rng (files - range_keys + 1) in
          Vo.Range (key k, key (k + range_keys - 1))
        end
      in
      { next; preload_left = no_preload }

let describe_ops = function
  | Point { write_frac; zipf_s } ->
      Printf.sprintf "%.0f%% Get / %.0f%% Set (seeded length), Zipf s=%.1f"
        (100. *. (1. -. write_frac)) (100. *. write_frac) zipf_s
  | Durable_rw { write_frac; value_bytes; preload_keys } ->
      Printf.sprintf
        "preload Set_many x%d of %d B, then %.0f%% Get / %.0f%% Set of %d B, uniform"
        preload_keys value_bytes
        (100. *. (1. -. write_frac))
        (100. *. write_frac) value_bytes
  | Scan { range_keys; commit_frac; commit_keys } ->
      Printf.sprintf "%.0f%% Range of %d keys / %.0f%% Set_many of %d keys, uniform"
        (100. *. (1. -. commit_frac))
        range_keys (100. *. commit_frac) commit_keys

let zipf_s w = match w.ops with Point { zipf_s; _ } -> zipf_s | _ -> 0.

let value_bytes w =
  match w.ops with Durable_rw { value_bytes; _ } -> value_bytes | _ -> 0
