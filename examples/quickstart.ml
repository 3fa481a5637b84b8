(* Quickstart: two users share a repository hosted on an (honest)
   untrusted server, running Protocol II — every checkout and commit is
   verified against the Merkle root, and the users sync their XOR
   registers every k operations.

   Run with: dune exec examples/quickstart.exe *)

open Tcvs

let ( let* ) r f =
  match r with
  | Ok v -> f v
  | Error e ->
      Format.printf "error: %a@." Cvs.pp_error e;
      exit 1

let () =
  Tcvs.Log_setup.install ();
  (* 1. Build the system: engine, honest server, two Protocol II users. *)
  let engine = Sim.Engine.create ~measure:Message.encoded_size () in
  let trace = Sim.Trace.create () in
  let server =
    Server.on_engine engine
      (Server.create
         { Server.mode = `Plain; epoch_len = None; adversary = Adversary.Honest }
         ~db:(Store.Shard_db.create ~branching:8 ~shards:1 []))
  in
  let config =
    Protocol2.default_config ~n:2 ~k:8 ~initial_root:(Server.initial_root server)
  in
  (* A user is a protocol agent; [on_engine] wires it to the simulator,
     which delivers its messages and ticks it every round. *)
  let user u =
    Protocol2.base
      (User_base.on_engine engine ~user:u ~agent:Protocol2.agent
         (Protocol2.create config ~user:u ~trace))
  in
  let alice = Cvs.session ~engine ~base:(user 0) in
  let bob = Cvs.session ~engine ~base:(user 1) in

  (* 2. Alice creates a file and commits twice. *)
  let* rev1 =
    Cvs.commit alice ~path:"src/main.ml" ~log:"initial import"
      ~content:"let () = print_endline \"hello\"\n"
  in
  Format.printf "alice committed src/main.ml revision %d@." rev1;
  let* _ = Cvs.checkout alice ~path:"src/main.ml" in
  let* rev2 =
    Cvs.commit alice ~path:"src/main.ml" ~log:"greet the world"
      ~content:"let () = print_endline \"hello, world\"\n"
  in
  Format.printf "alice committed revision %d@." rev2;

  (* 3. Bob checks out, edits, and commits. Every response he saw was
     verified against the Merkle root digest. *)
  let* content, history = Cvs.checkout bob ~path:"src/main.ml" in
  Format.printf "bob checked out revision %d:@.%s" (Vcs.File_history.head_revision history)
    content;
  let* rev3 =
    Cvs.commit bob ~path:"src/main.ml" ~log:"exclaim"
      ~content:"let () = print_endline \"hello, world!\"\n"
  in
  Format.printf "bob committed revision %d@." rev3;

  (* 4. History queries run through the same verified channel. *)
  let* entries = Cvs.log bob ~path:"src/main.ml" in
  Format.printf "@.cvs log:@.";
  List.iter
    (fun (rev, author, round, message) ->
      Format.printf "  r%d by user-%d at round %d: %s@." rev author round message)
    entries;
  let* annotated = Cvs.annotate bob ~path:"src/main.ml" in
  Format.printf "@.cvs annotate:@.";
  List.iter (fun (line, rev) -> Format.printf "  r%d | %s@." rev line) annotated;

  (* 5. Nothing misbehaved, so nobody raised an alarm. *)
  Format.printf "@.alarms: %d — messages exchanged: %d (%d bytes), rounds simulated: %d@."
    (List.length (Sim.Engine.alarms engine))
    (Sim.Engine.messages_sent engine) (Sim.Engine.bytes_sent engine)
    (Sim.Engine.round engine)
