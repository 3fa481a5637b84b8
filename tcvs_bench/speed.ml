(* Host speed probe.

   On a shared VM a CPU's speed moves with the neighbours' load, by up
   to 2x within half an hour on the 2-vCPU VM this benchmark was defined
   on (README.md, "Host speed"); CPU time moves with wall time, so the
   slowdown is in the CPU itself, not in scheduling. The runner
   therefore times a fixed amount of work on the CPU the benchmark is
   pinned to, next to every slice it measures, and reports times scaled
   to a reference speed.

   The work has the shape of the system's: SHA-256-style compression
   rounds over native ints (the ALU mix of its hashing), loopback TCP
   round trips and file appends (the kernel's share). It is the
   benchmark's own code, so no change to the system under test can make
   the probe faster or slower. It was chosen among five candidate
   probes by the run-to-run spread it left (README.md). *)

let mask = 0xffffffff
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* round constants and message words are arbitrary *)
let k = Array.init 64 (fun i -> ((i * 0x9e3779b9) + 0x428a2f98) land mask)
let message = Array.init 16 (fun i -> i * 0x01010101 land mask)
let w = Array.make 64 0
let state = Array.init 8 (fun i -> i * 0x6a09e667 land mask)

let compress () =
  Array.blit message 0 w 0 16;
  for t = 16 to 63 do
    let x = w.(t - 15) and y = w.(t - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
  done;
  let a = ref state.(0) and b = ref state.(1) and c = ref state.(2) and d = ref state.(3) in
  let e = ref state.(4) and f = ref state.(5) and g = ref state.(6) and h = ref state.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g land mask) in
    let t1 = (!h + s1 + ch + k.(t) + w.(t)) land mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    h := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + ((s0 + maj) land mask)) land mask
  done;
  state.(0) <- (state.(0) + !a) land mask;
  state.(4) <- (state.(4) + !e) land mask

type t = { ping : Unix.file_descr; pong : Unix.file_descr; file : string }

(* A connected loopback TCP pair, and a scratch file in [dir]. *)
let create ~dir =
  let l = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close l)
    (fun () ->
      Unix.bind l (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen l 1;
      let port = match Unix.getsockname l with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
      let ping = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect ping (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let pong, _ = Unix.accept ~cloexec:true l in
      List.iter (fun fd -> Unix.setsockopt fd Unix.TCP_NODELAY true) [ ping; pong ];
      { ping; pong; file = Filename.concat dir "speed-probe.dat" })

let close t =
  Unix.close t.ping;
  Unix.close t.pong;
  try Sys.remove t.file with Sys_error _ -> ()

let msg = Bytes.make 200 'p'
let buf = Bytes.create 200
let chunk = Bytes.make 8192 'w'

let rec read_exactly fd n = if n > 0 then read_exactly fd (n - Unix.read fd buf 0 n)

let syscalls t =
  for _ = 1 to 20 do
    ignore (Unix.write t.ping msg 0 200);
    read_exactly t.pong 200;
    ignore (Unix.write t.pong msg 0 200);
    read_exactly t.ping 200
  done;
  let fd = Unix.openfile t.file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  for _ = 1 to 16 do
    ignore (Unix.write fd chunk 0 8192)
  done;
  Unix.close fd

(* How long the probe takes at reference speed: about its median on the
   VM above. *)
let reference_ns = 60_000_000

(* Runs the probe; the result is the host's slowness against the
   reference: 2.0 means times measured now are twice what they would be
   at reference speed. *)
let probe t =
  let t0 = Spans.now_ns () in
  for _ = 1 to 40_000 do
    compress ()
  done;
  for _ = 1 to 100 do
    syscalls t
  done;
  float_of_int (Spans.now_ns () - t0) /. float_of_int reference_ns
