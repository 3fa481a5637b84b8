(* Layer probes for the traced run: an in-process replay of the
   workload's first ops through the server-side layer calls, and
   Bechamel microbenchmarks of the hot primitives. Both run after the
   servers have stopped, so they measure the layers on an idle host. *)

module Vo = Mtree.Vo
module Codec = Net.Codec
module Conn = Net.Conn
module Message = Tcvs.Message
module Shard_db = Store.Shard_db

let now_ns = Spans.now_ns

let response ~answer ~vo ~ctr ~last_user =
  Message.Response
    { answer; vo; ctr; last_user; root_sig = None; epoch = 0; epoch_states = [] }

let reply_frame ~seq msg = Codec.Reply { seq; ctx = { Codec.x_round = 0; x_user = 0; x_span = seq }; msg }

(* The router's work on one op, as Net.Router does it: replay each
   owning shard's flat proof, splice it into the composition over the
   idle shards' root stubs, and encode the composed reply. The shard
   proofs themselves are shard-daemon work and are built untimed. *)
let router_compose db op ~answer ~ctr =
  let map = Shard_db.map db in
  let boundaries = Store.Shard_map.boundaries map in
  let trees = Shard_db.trees db in
  let flats =
    List.map
      (fun i ->
        let sub = Vo.sub_op_for boundaries i op in
        (i, sub, Vo.generate trees.(i) sub))
      (Vo.shards_for boundaries op)
  in
  let t0 = now_ns () in
  let parts = Array.map (fun r -> Mtree.Node.Stub r) (Shard_db.shard_roots db) in
  List.iter
    (fun (i, sub, vo) ->
      match Vo.apply vo sub with Ok _ -> parts.(i) <- Vo.root_node vo | Error _ -> ())
    flats;
  let vo = Vo.of_parts ~branching:Mix.branching ~boundaries ~parts in
  ignore (Codec.encode_message (response ~answer ~vo ~ctr ~last_user:0));
  (t0, now_ns ())

type replay = {
  spans : Spans.t;
  final_db : Shard_db.t;
  checkpoint_us_mean : float;  (** checkpoints the replay's log_op calls triggered *)
}

(* Replays the first [ops] ops of the workload's streams (connections
   interleaved) through a durable store in [dir], with one span per
   layer call. Storeless workloads go through a store too, so the
   store layer is measured on every op stream; the runner leaves it out
   of their server time. *)
let replay (w : Mix.t) ~seed ~dir ~ops =
  match
    Store.create_or_open ~checkpoint_every:Mix.checkpoint_every ~durability:Store.Per_op ~dir
      ~branching:Mix.branching ~shards:w.shards ~initial:Mix.initial ()
  with
  | Error e -> Error ("replay store: " ^ e)
  | Ok (store, _) ->
      let sp = Spans.create ~proc:"replay" in
      let gens = Array.init Mix.conns (fun conn -> Mix.generator w ~seed ~conn) in
      let seqs = Array.make Mix.conns 0 in
      let stats () = Option.value ~default:(0, 0, 0, 0) (Obs.stats "store.checkpoint_us") in
      let ck_count0, ck_sum0, _, _ = stats () in
      let db = ref (Store.db store) and last_user = ref (-1) in
      for ctr = 0 to ops - 1 do
        let u = ctr mod Mix.conns in
        let op = gens.(u).Mix.next () in
        seqs.(u) <- seqs.(u) + 1;
        let seq = seqs.(u) in
        let root = Spans.add sp ~name:"server.op" ~parent:(-1) ~conn:u ~seq ~start:(now_ns ()) ~stop:0 in
        let timed name f =
          let t0 = now_ns () in
          let r = f () in
          ignore (Spans.add sp ~name ~parent:root ~conn:u ~seq ~start:t0 ~stop:(now_ns ()));
          r
        in
        let vo = timed "mtree.generate_vo" (fun () -> Shard_db.generate_vo !db op) in
        let db', answer = timed "mtree.apply" (fun () -> Shard_db.apply !db op) in
        timed "store.declare_origin" (fun () -> Store.declare_origin store ~user:u ~seq);
        timed "store.log_op" (fun () ->
            Store.log_op store ~db:db' ~op ~ctr:(ctr + 1) ~last_user:u);
        let msg = response ~answer ~vo ~ctr ~last_user:!last_user in
        (* the daemon encodes every reply for its dedup cache, store or not *)
        let payload = timed "codec.encode_message" (fun () -> Codec.encode_message msg) in
        timed "store.log_reply" (fun () -> Store.log_reply store ~user:u ~seq ~payload);
        timed "store.flush" (fun () -> Store.flush store);
        ignore (timed "codec.encode_frame" (fun () -> Codec.encode_frame (reply_frame ~seq msg)));
        Spans.finish sp root ~stop:(now_ns ());
        let r0, r1 = router_compose !db op ~answer ~ctr in
        ignore (Spans.add sp ~name:"router.compose" ~parent:(-1) ~conn:u ~seq ~start:r0 ~stop:r1);
        db := db';
        last_user := u
      done;
      Store.close store;
      let ck_count1, ck_sum1, _, _ = stats () in
      Ok
        {
          spans = sp;
          final_db = !db;
          checkpoint_us_mean =
            (if ck_count1 > ck_count0 then
               float_of_int (ck_sum1 - ck_sum0) /. float_of_int (ck_count1 - ck_count0)
             else 0.);
        }

(* ---- Microbenchmarks --------------------------------------------------- *)

let measure_ns ?(quota = 0.2) name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ v acc -> match Analyze.OLS.estimates v with Some (e :: _) -> e | _ -> acc)
    results nan

let loopback_pair () =
  let l = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close l)
    (fun () ->
      Unix.bind l (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen l 1;
      let port = match Unix.getsockname l with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
      let a = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect a (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let b, _ = Unix.accept ~cloexec:true l in
      (Conn.create a, Conn.create b))

(* Push [src]'s buffered frames until [dst] pops one. *)
let rec deliver ~src ~dst =
  Conn.flush src;
  Conn.fill dst;
  match Conn.pop dst with
  | Ok (Some _) -> ()
  | Ok None -> deliver ~src ~dst
  | Error e -> failwith (Codec.error_to_string e)

(* Bechamel estimates of the primitives under the layers, on samples
   taken from [db] — the replay's final state, so the values and tree
   shape are the workload's own. *)
let micro db =
  let key = Tcvs.Harness.file_key in
  let sample op =
    let vo = Shard_db.generate_vo db op in
    let _, answer = Shard_db.apply db op in
    reply_frame ~seq:1 (response ~answer ~vo ~ctr:1 ~last_user:0)
  in
  let point = sample (Vo.Get (key 0)) and range = sample (Vo.Range (key 0, key 127)) in
  let point_enc = Codec.encode_frame point and range_enc = Codec.encode_frame range in
  let request =
    Codec.Request
      {
        seq = 1;
        ctx = { Codec.x_round = 0; x_user = 0; x_span = 1 };
        msg = Message.Query { op = Vo.Get (key 0); piggyback = [] };
      }
  in
  let s64 = String.make 64 'x' and s1k = String.make 1024 'x' in
  let counter = Obs.counter ~scope:(Obs.Scope.v "tcvs_bench") "probe" in
  let a, b = loopback_pair () in
  let pingpong reply () =
    Conn.send a request;
    deliver ~src:a ~dst:b;
    Conn.send b reply;
    deliver ~src:b ~dst:a
  in
  let ns name f = (name, measure_ns name f, "ns") in
  let us name f = (name, measure_ns name f /. 1e3, "us") in
  let results =
    [
      ns "crypto.sha256_ns_64B" (fun () -> Crypto.Sha256.digest s64);
      ns "crypto.sha256_ns_1KiB" (fun () -> Crypto.Sha256.digest s1k);
      ns "net.codec.encode_reply_point_ns" (fun () -> Codec.encode_frame point);
      ns "net.codec.decode_reply_point_ns" (fun () -> Codec.decode_frame point_enc);
      ns "net.codec.request_roundtrip_ns" (fun () ->
          Codec.decode_frame (Codec.encode_frame request));
      ns "net.codec.encode_reply_range_ns" (fun () -> Codec.encode_frame range);
      ns "net.codec.decode_reply_range_ns" (fun () -> Codec.decode_frame range_enc);
      us "net.conn.pingpong_us_point" (pingpong point);
      us "net.conn.pingpong_us_range" (pingpong range);
      ns "obs.counter_incr_ns" (fun () -> Obs.incr counter);
    ]
  in
  Conn.close a;
  Conn.close b;
  results
