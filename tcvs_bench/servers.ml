(* Server processes for one workload instance.

   Servers are re-execs of this binary in its hidden [__serve] mode,
   which runs [Net.Daemon.run] or [Net.Router.run] with an explicit
   config: the CLI's [serve] pins its database size, and the benchmark
   needs 4096 files. Every server runs with its admin endpoint on, so
   traced and untraced runs start identical processes. *)

type role = Daemon | Router

type proc = { name : string; pid : int; role : role; admin_port : int }

type t = { procs : proc list; port : int  (** where clients connect *) }

(* ---- Child mode -------------------------------------------------------- *)

let serve args =
  let role = ref "" and port_file = ref "" and admin_file = ref "" in
  let shards = ref 1 in
  let users = ref Mix.conns and seed = ref "" and store = ref "" in
  let shard_id = ref (-1) and shard_count = ref 1 and shard_ports = ref [] in
  let spec =
    [
      ("--port-file", Arg.Set_string port_file, "");
      ("--admin-port-file", Arg.Set_string admin_file, "");
      ("--shards", Arg.Set_int shards, "");
      ("--users", Arg.Set_int users, "");
      ("--seed", Arg.Set_string seed, "");
      ("--store", Arg.Set_string store, "");
      ("--shard-id", Arg.Set_int shard_id, "");
      ("--shard-count", Arg.Set_int shard_count, "");
      ("--shard-port", Arg.Int (fun p -> shard_ports := p :: !shard_ports), "");
    ]
  in
  Arg.parse_argv ~current:(ref 0) (Array.of_list ("__serve" :: args)) spec
    (fun r -> role := r)
    "__serve daemon|router";
  (* stdin is a pipe whose write end only the runner holds: EOF means
     the runner is gone, so drain and exit as on a normal stop *)
  ignore
    (Thread.create
       (fun () ->
         let b = Bytes.create 1 in
         (try while Unix.read Unix.stdin b 0 1 > 0 do () done with Unix.Unix_error _ -> ());
         Unix.kill (Unix.getpid ()) Sys.sigterm)
       ());
  let result =
    match !role with
    | "daemon" ->
        Net.Daemon.run
          {
            Net.Daemon.default_config with
            port_file = Some !port_file;
            store_dir = (if !store = "" then None else Some !store);
            shards = !shards;
            branching = Mix.branching;
            files = Mix.files;
            protocol = Tcvs.Harness.Unverified;
            users = !users;
            seed = !seed;
            checkpoint_every = Mix.checkpoint_every;
            durability = Store.Per_op;
            admin_port = Some 0;
            admin_port_file = Some !admin_file;
            shard_id = (if !shard_id < 0 then None else Some !shard_id);
            shard_count = !shard_count;
          }
    | "router" ->
        let shard_addrs =
          Array.of_list (List.rev_map (fun p -> ("127.0.0.1", p)) !shard_ports)
        in
        Net.Router.run
          {
            (Net.Router.default_config ~shard_addrs) with
            port_file = Some !port_file;
            branching = Mix.branching;
            files = Mix.files;
            users = !users;
            admin_port = Some 0;
            admin_port_file = Some !admin_file;
          }
    | r -> Error ("unknown server role " ^ r)
  in
  match result with
  | Ok () -> exit 0
  | Error e ->
      prerr_endline e;
      exit 2

(* ---- Parent side ------------------------------------------------------- *)

(* Every child still running; reaped by [stop], or by [kill_all] when
   the runner exits early. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 8

(* Children read this pipe as stdin; its write end never leaves this
   process (close-on-exec), so it closes exactly when the runner dies. *)
let lifeline = lazy (Unix.pipe ~cloexec:true ())

let spawn ~dir ~name args =
  let log =
    Unix.openfile (Filename.concat dir (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "__serve" :: args))
      (fst (Lazy.force lifeline)) log log
  in
  Unix.close log;
  Hashtbl.replace live pid ();
  pid

let sleep s = ignore (Unix.select [] [] [] s)

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let reap pid =
  let rec wait_until deadline =
    if exited pid then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      sleep 0.005;
      wait_until deadline
    end
  in
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (wait_until (Unix.gettimeofday () +. 5.)) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  end;
  Hashtbl.remove live pid

let kill_all () = List.iter reap (List.of_seq (Hashtbl.to_seq_keys live))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The daemon writes port files tmp+rename, so an existing file is
   complete. *)
let wait_port ~name ~pid path =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec loop () =
    if Sys.file_exists path then Ok (int_of_string (String.trim (read_file path)))
    else if exited pid then begin
      Hashtbl.remove live pid;
      Error (Printf.sprintf "%s exited before listening (see its .log)" name)
    end
    else if Unix.gettimeofday () > deadline then Error (name ^ ": no port file after 60 s")
    else begin
      sleep 0.001;
      loop ()
    end
  in
  loop ()

let start_proc ~dir ~name ~role args =
  let pf = Filename.concat dir (name ^ ".port") and af = Filename.concat dir (name ^ ".admin") in
  let pid = spawn ~dir ~name (args @ [ "--port-file"; pf; "--admin-port-file"; af ]) in
  Result.bind (wait_port ~name ~pid pf) (fun port ->
      Result.map
        (fun admin_port -> ({ name; pid; role; admin_port }, port))
        (wait_port ~name ~pid af))

let stop t = List.iter (fun p -> reap p.pid) t.procs

let ( let* ) = Result.bind

(* Starts the workload's servers over a fresh directory [dir]. *)
let start (w : Mix.t) ~dir ~seed =
  let base = [ "--seed"; seed ] in
  let store name = if w.store then [ "--store"; Filename.concat dir (name ^ ".store") ] else [] in
  match w.topology with
  | Mix.Single ->
      let* d, port =
        start_proc ~dir ~name:"daemon" ~role:Daemon
          ("daemon" :: base
          @ [ "--shards"; string_of_int w.shards; "--users"; string_of_int Mix.conns ]
          @ store "daemon")
      in
      Ok { procs = [ d ]; port }
  | Mix.Cluster ->
      (* the router links every shard on its first loop turn, before it
         reads any client Hello *)
      let started = ref [] in
      let rec shards i acc =
        if i = w.shards then Ok (List.rev acc)
        else
          let name = Printf.sprintf "shard%d" i in
          let* p, port =
            start_proc ~dir ~name ~role:Daemon
              ("daemon" :: base
              @ [ "--shard-id"; string_of_int i; "--shard-count"; string_of_int w.shards ]
              @ store name)
          in
          started := p :: !started;
          shards (i + 1) (port :: acc)
      in
      let result =
        let* ports = shards 0 [] in
        let* r, port =
          start_proc ~dir ~name:"router" ~role:Router
            ("router" :: base
            @ [ "--users"; string_of_int Mix.conns ]
            @ List.concat_map (fun p -> [ "--shard-port"; string_of_int p ]) ports)
        in
        Ok { procs = List.rev (r :: !started); port }
      in
      (match result with Error _ -> List.iter (fun p -> reap p.pid) !started | Ok _ -> ());
      result

(* ---- Observation from outside the process ------------------------------ *)

let scrape_json port =
  match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
          | exception Unix.Unix_error (e, _, _) -> Error ("admin: " ^ Unix.error_message e)
          | () ->
              let buf = Buffer.create 16384 and chunk = Bytes.create 65536 in
              let deadline = Unix.gettimeofday () +. 5. in
              let rec loop () =
                let left = deadline -. Unix.gettimeofday () in
                if left <= 0. then Error "admin scrape timed out"
                else
                  match Unix.select [ fd ] [] [] left with
                  | [], _, _ -> loop ()
                  | _ -> (
                      match Unix.read fd chunk 0 (Bytes.length chunk) with
                      | 0 -> Obs.Json.parse (Buffer.contents buf)
                      | n ->
                          Buffer.add_subbytes buf chunk 0 n;
                          loop ())
              in
              loop ())

(* utime + stime of [pid] in µs; /proc reports them in USER_HZ (100)
   ticks, so the resolution is 10 ms. *)
let cpu_us pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name, from field 3 on *)
  let from = String.rindex s ')' + 2 in
  let fields = Array.of_list (String.split_on_char ' ' (String.sub s from (String.length s - from))) in
  float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) *. 1e4

(* Bytes the process passed to write(2) and friends, sockets included. *)
let wchar pid =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "wchar"; v ] -> int_of_string (String.trim v)
      | _ -> acc)
    0
    (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/io" pid)))

type sample = { proc : proc; registry : Obs.Json.t; cpu : float; written : int }

let sample t =
  List.fold_right
    (fun p acc ->
      Result.bind acc (fun rest ->
          Result.map
            (fun json ->
              let registry = Option.value ~default:Obs.Json.Null (Obs.Json.member "registry" json) in
              { proc = p; registry; cpu = cpu_us p.pid; written = wchar p.pid } :: rest)
            (scrape_json p.admin_port)))
    t.procs (Ok [])

let path registry keys =
  List.fold_left (fun j k -> Option.bind j (Obs.Json.member k)) (Some registry) keys

let num j = Option.value ~default:0. (Results.to_float j)

let counter s name = num (path s.registry [ "counters"; name ])
let hist s name field = num (path s.registry [ "histograms"; name; field ])
