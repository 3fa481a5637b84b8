(* The interprocedural lint tier: four reachability analyses over the
   {!Lint_callgraph}, plus the baseline mechanism that lets
   pre-existing findings be pinned and burned down instead of blocking
   the build.

   Roots are declared in the source itself with
   [@tcvs.lint.root "<tag>"] on the entry-point bindings — each
   process's event-loop root (the def that hands [Loop.turn] its
   callbacks) carries "event-loop", the VO replay and Merkle
   digest-verification entry points carry "hot-path" — so the analyses
   follow the code when entry points move, and fixtures can define
   their own roots. Domain-spawn sites need no annotation: any def that
   references [Domain.spawn] is a spawn site. Nor do dead-code's roots:
   every def outside lib/ is one.

   Suppression mirrors the syntactic tier: a deep finding is charged to
   the def (or toplevel binding) it fires in, and is silenced by a
   [@tcvs.lint.allow "<rule>"] attribute on that binding, an
   `allow <rule> <path>` config directive for its file, or a baseline
   entry for its key. Keys are line-number-free
   (rule|file|symbol|detail), so a baseline survives unrelated edits to
   the file. *)

module G = Lint_callgraph

type finding = {
  file : string;
  line : int;
  col : int;
  rule_id : string;
  symbol : string; (* the def or binding charged: "Daemon.serve_admin" *)
  detail : string; (* primitive / allocation kind / shared-state kind *)
  message : string;
}

let key f = String.concat "|" [ f.rule_id; f.file; f.symbol; f.detail ]

let pp_finding fmt (f : finding) =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule_id f.message

let to_string f = Format.asprintf "%a" pp_finding f

let sort findings =
  List.sort
    (fun a b ->
      match String.compare a.file b.file with
      | 0 -> (
          match Int.compare a.line b.line with
          | 0 -> (
              match Int.compare a.col b.col with
              | 0 -> String.compare a.detail b.detail
              | c -> c)
          | c -> c)
      | c -> c)
    findings

(* ---- Rule ids, root tags, catalogue ---------------------------------- *)

let event_loop_purity_id = "event-loop-purity"
let event_loop_root_tag = "event-loop"
let hot_path_alloc_id = "hot-path-alloc"
let hot_path_root_tag = "hot-path"
let domain_safety_id = "domain-safety"
let dead_code_id = "dead-code"

let rules =
  [
    ( event_loop_purity_id,
      "no blocking primitive (Unix.sleep, blocking read/write, fsync outside the \
       store's flush paths, Mutex.lock, channel I/O) reachable from a def marked \
       [@tcvs.lint.root \"event-loop\"] — one per process, on the def that hands the \
       loop its callbacks; the loop's own select is the one allowed wait" );
    ( hot_path_alloc_id,
      "no closure / ref / list-cons / string-concat allocation reachable from a def \
       marked [@tcvs.lint.root \"hot-path\"] — VO replay and Merkle digest \
       verification — unless allowlisted as a provably-amortized builder" );
    ( domain_safety_id,
      "no mutable toplevel state (ref, Hashtbl, mutable record fields, arrays) in a \
       module reachable from more than one Domain.spawn site — the gating check for \
       running shards on OCaml 5 domains" );
    ( dead_code_id,
      "every lib/ def is reachable from a program: the roots are every def in bin/, \
       bench/, examples/, tools/ and tcvs_bench/, every module's top-level effects, \
       and every def allowlisted for this rule (a hook a test needs, with its reason)" );
  ]

(* ---- Blocking-primitive classification ------------------------------- *)

let strip_stdlib name =
  match String.split_on_char '.' name with
  | "Stdlib" :: rest -> String.concat "." rest
  | _ -> name

(* Primitives that block regardless of fd flags. *)
let always_blocking =
  [
    ("Unix.sleep", "suspends the whole process");
    ("Unix.sleepf", "suspends the whole process");
    ("Thread.delay", "suspends the event-loop thread");
    ("Mutex.lock", "may park the event loop behind another domain");
    ("Condition.wait", "parks the event loop");
    ("Unix.waitpid", "blocks until a child exits");
    ("Unix.system", "blocks for a whole subprocess");
    ("Unix.select", "a nested select inside a loop handler stalls the round clock");
  ]

(* File/socket I/O: blocking unless the fd is nonblocking, which the
   parser cannot see; the store's group-commit flush is the sanctioned
   blocking point of a tick, so these are exempt inside lib/store. *)
let io_blocking =
  [
    ("Unix.read", "blocking read on a blocking fd");
    ("Unix.write", "blocking write on a blocking fd");
    ("Unix.write_substring", "blocking write on a blocking fd");
    ("Unix.single_write", "blocking write on a blocking fd");
    ("Unix.single_write_substring", "blocking write on a blocking fd");
    ("Unix.fsync", "durability barrier outside the store's flush path");
    ("Unix.fdatasync", "durability barrier outside the store's flush path");
    ("output_string", "blocking channel write");
    ("output_bytes", "blocking channel write");
    ("output_char", "blocking channel write");
    ("output_byte", "blocking channel write");
    ("output_value", "blocking channel write");
    ("flush", "blocking channel flush");
    ("input_line", "blocking channel read");
    ("input_byte", "blocking channel read");
    ("input_char", "blocking channel read");
    ("really_input", "blocking channel read");
    ("really_input_string", "blocking channel read");
  ]

let store_exempt_file file = Lint_config.path_has_prefix ~prefix:"lib/store" file

let classify_blocking ~file name =
  let name = strip_stdlib name in
  match List.assoc_opt name always_blocking with
  | Some why -> Some (name, why)
  | None -> (
      match List.assoc_opt name io_blocking with
      | Some why when not (store_exempt_file file) -> Some (name, why)
      | _ -> None)

(* ---- Shared helpers --------------------------------------------------- *)

let allowed config rule (def : G.def) =
  Lint_config.rule_disabled config rule
  || Lint_config.allowed_by_config config rule def.G.d_file
  || List.exists (String.equal rule) def.G.d_allows

let loc_pos (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

(* Only function defs are scanned: a value def's body ran once at
   module init, so what it allocates or blocks on is not chargeable to
   the root that merely reads the value. *)
let reached_defs graph reached =
  Hashtbl.fold
    (fun id _ acc ->
      match G.find_def graph id with
      | Some d when d.G.d_is_fun -> d :: acc
      | _ -> acc)
    reached []
  |> List.sort (fun (a : G.def) b -> String.compare a.G.d_id b.G.d_id)

(* ---- event-loop-purity ------------------------------------------------ *)

let check_event_loop ~config graph =
  let roots = G.defs_with_root graph event_loop_root_tag in
  match roots with
  | [] -> []
  | _ ->
      let reached =
        G.reachable graph ~roots:(List.map (fun (d : G.def) -> d.G.d_id) roots)
      in
      reached_defs graph reached
      |> List.concat_map (fun (def : G.def) ->
             if allowed config event_loop_purity_id def then []
             else
               let seen = Hashtbl.create 4 in
               List.rev def.G.d_extern
               |> List.filter_map (fun (name, loc) ->
                      match classify_blocking ~file:def.G.d_file name with
                      | Some (prim, why) when not (Hashtbl.mem seen prim) ->
                          Hashtbl.replace seen prim ();
                          let line, col = loc_pos loc in
                          Some
                            {
                              file = def.G.d_file;
                              line;
                              col;
                              rule_id = event_loop_purity_id;
                              symbol = def.G.d_id;
                              detail = prim;
                              message =
                                Printf.sprintf
                                  "%s in %s (%s) is reachable from the event loop: %s"
                                  prim def.G.d_id why (G.path_to reached def.G.d_id);
                            }
                      | _ -> None))

(* ---- hot-path-alloc --------------------------------------------------- *)

(* Bare allocator references surfaced as extern facts by the graph. *)
let alloc_externs =
  [
    ("ref", "ref", "allocates a fresh ref cell");
    ("^", "string-concat", "allocates and copies both strings");
    ("@", "list-append", "copies the whole left list");
  ]

let check_hot_path ~config graph =
  let roots = G.defs_with_root graph hot_path_root_tag in
  match roots with
  | [] -> []
  | _ ->
      let reached =
        G.reachable graph ~roots:(List.map (fun (d : G.def) -> d.G.d_id) roots)
      in
      reached_defs graph reached
      |> List.concat_map (fun (def : G.def) ->
             if allowed config hot_path_alloc_id def then []
             else begin
               let mk detail loc message =
                 let line, col = loc_pos loc in
                 {
                   file = def.G.d_file;
                   line;
                   col;
                   rule_id = hot_path_alloc_id;
                   symbol = def.G.d_id;
                   detail;
                   message =
                     Printf.sprintf "%s; on the hot path: %s" message
                       (G.path_to reached def.G.d_id);
                 }
               in
               let shape =
                 (match def.G.d_closure_loc with
                 | Some loc when def.G.d_closures > 0 ->
                     [
                       mk "closure" loc
                         (Printf.sprintf "%s allocates %d closure%s per call"
                            def.G.d_id def.G.d_closures
                            (if def.G.d_closures = 1 then "" else "s"));
                     ]
                 | _ -> [])
                 @
                 match def.G.d_cons_loc with
                 | Some loc when def.G.d_cons > 0 ->
                     [
                       mk "list-cons" loc
                         (Printf.sprintf "%s builds lists (%d cons site%s)"
                            def.G.d_id def.G.d_cons
                            (if def.G.d_cons = 1 then "" else "s"));
                     ]
                 | _ -> []
               in
               let seen = Hashtbl.create 4 in
               let externs =
                 List.rev def.G.d_extern
                 |> List.filter_map (fun (name, loc) ->
                        match
                          List.find_opt
                            (fun (n, _, _) -> String.equal n (strip_stdlib name))
                            alloc_externs
                        with
                        | Some (_, detail, why) when not (Hashtbl.mem seen detail) ->
                            Hashtbl.replace seen detail ();
                            Some
                              (mk detail loc
                                 (Printf.sprintf "%s in %s %s"
                                    (strip_stdlib name) def.G.d_id why))
                        | _ -> None)
               in
               shape @ externs
             end)

(* ---- domain-safety ---------------------------------------------------- *)

let spawn_sites graph =
  Hashtbl.fold
    (fun _ (def : G.def) acc ->
      if
        List.exists
          (fun (name, _) -> String.equal (strip_stdlib name) "Domain.spawn")
          def.G.d_extern
      then def :: acc
      else acc)
    graph.G.defs []
  |> List.sort (fun (a : G.def) b -> String.compare a.G.d_id b.G.d_id)

let check_domain_safety ~config graph =
  match spawn_sites graph with
  | [] | [ _ ] -> [] (* zero or one domain: nothing is shared across domains *)
  | sites ->
      (* per spawn site, which files does the spawned domain (over-
         approximated by everything reachable from the enclosing def)
         touch? *)
      let touched =
        List.map
          (fun (site : G.def) ->
            let reached = G.reachable graph ~roots:[ site.G.d_id ] in
            let files = Hashtbl.create 16 in
            Hashtbl.iter
              (fun id _ ->
                match G.find_def graph id with
                | Some d -> Hashtbl.replace files d.G.d_file ()
                | None -> ())
              reached;
            (site, files))
          sites
      in
      List.rev graph.G.mutables
      |> List.filter_map (fun (m : G.mutable_site) ->
             if
               Lint_config.rule_disabled config domain_safety_id
               || Lint_config.allowed_by_config config domain_safety_id m.G.m_file
               || List.exists (String.equal domain_safety_id) m.G.m_allows
             then None
             else
               let reachers =
                 List.filter_map
                   (fun ((site : G.def), files) ->
                     if Hashtbl.mem files m.G.m_file then Some site.G.d_id else None)
                   touched
               in
               if List.length reachers >= 2 then begin
                 let line, col = loc_pos m.G.m_loc in
                 Some
                   {
                     file = m.G.m_file;
                     line;
                     col;
                     rule_id = domain_safety_id;
                     symbol = m.G.m_id;
                     detail = "shared-" ^ m.G.m_kind;
                     message =
                       Printf.sprintf
                         "%s is toplevel mutable state (%s) in a module reachable \
                          from %d Domain.spawn sites (%s); make it per-domain \
                          (Domain.DLS) or guard it and allowlist"
                         m.G.m_id m.G.m_kind (List.length reachers)
                         (String.concat ", " reachers);
                   }
               end
               else None)

(* ---- dead-code -------------------------------------------------------- *)

let in_lib (def : G.def) = Lint_config.path_has_prefix ~prefix:"lib" def.G.d_file

let is_init (def : G.def) = String.ends_with ~suffix:".(init)" def.G.d_id

(* A value reached counts its body as needed too: the question is what
   code some program can use, not what a call runs. A graph with no
   program in it has no roots, so the rule is silent there, as
   event-loop-purity is on a graph without an event-loop root. *)
let check_dead_code ~config graph =
  let defs =
    Hashtbl.fold (fun _ def acc -> def :: acc) graph.G.defs []
    |> List.sort (fun (a : G.def) b -> String.compare a.G.d_id b.G.d_id)
  in
  if List.for_all in_lib defs then []
  else
    let roots =
      List.filter_map
        (fun (def : G.def) ->
          if (not (in_lib def)) || is_init def || allowed config dead_code_id def then
            Some def.G.d_id
          else None)
        defs
    in
    let reached = G.reachable ~through_values:true graph ~roots in
    List.filter_map
      (fun (def : G.def) ->
        if G.is_reached reached def.G.d_id then None
        else
          let line, col = loc_pos def.G.d_loc in
          Some
            {
              file = def.G.d_file;
              line;
              col;
              rule_id = dead_code_id;
              symbol = def.G.d_id;
              detail = "unreached";
              message =
                Printf.sprintf
                  "%s is reached from no program (%s): delete it, or allow it with \
                   the reason a test needs it"
                  def.G.d_id
                  (String.concat ", " (List.map (fun d -> d ^ "/") G.program_dirs));
            })
      defs

(* ---- Entry ------------------------------------------------------------ *)

let analyze ~config graph =
  sort
    (check_event_loop ~config graph
    @ check_hot_path ~config graph
    @ check_domain_safety ~config graph
    @ check_dead_code ~config graph)

(* ---- Baseline --------------------------------------------------------- *)

(* One key per line, '#' comments. The file is committed; CI fails on
   any finding whose key is absent and asserts the committed file only
   ever loses lines. *)

let baseline_of_string source =
  String.split_on_char '\n' source
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None else Some line)

let load_baseline path =
  if not (Sys.file_exists path) then Error (path ^ ": no such baseline file")
  else Ok (baseline_of_string (Lint_config.read_file path))

let render_baseline keys =
  let sorted = List.sort_uniq String.compare keys in
  String.concat "\n"
    ("# tcvs-lint deep-tier baseline: pinned pre-existing findings, one"
     :: "# key (rule|file|symbol|detail) per line. This file only ever"
     :: "# shrinks: fix or justify a finding, delete its line. CI diffs"
     :: "# against the committed copy and fails if a line appears."
     :: sorted)
  ^ "\n"

(* ---- JSON report ------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The JSON schema is part of the tool's contract (CI artifacts, the
   test_lint.ml schema-stability case): version bumps on any shape
   change. *)
let json_report ~static ~deep ~baselined ~stale =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"version\":1,\"findings\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char b ',' in
  List.iter
    (fun (f : Lint_engine.finding) ->
      sep ();
      Printf.bprintf b
        "{\"tier\":\"syntactic\",\"rule\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\"}"
        (json_escape f.Lint_engine.rule_id)
        (json_escape f.Lint_engine.file)
        f.Lint_engine.line f.Lint_engine.col
        (json_escape f.Lint_engine.message))
    static;
  let deep_entry is_baselined (f : finding) =
    sep ();
    Printf.bprintf b
      "{\"tier\":\"deep\",\"rule\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"symbol\":\"%s\",\"detail\":\"%s\",\"key\":\"%s\",\"baselined\":%b,\"message\":\"%s\"}"
      (json_escape f.rule_id) (json_escape f.file) f.line f.col (json_escape f.symbol)
      (json_escape f.detail) (json_escape (key f)) is_baselined (json_escape f.message)
  in
  List.iter (deep_entry false) deep;
  List.iter (deep_entry true) baselined;
  Buffer.add_string b "],\"summary\":{";
  Printf.bprintf b "\"syntactic\":%d,\"deep_new\":%d,\"deep_baselined\":%d,\"stale_baseline\":["
    (List.length static) (List.length deep) (List.length baselined);
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%s\"" (json_escape k))
    stale;
  Buffer.add_string b "]}}";
  Buffer.contents b

(* Split findings into (new, baselined, stale-keys). *)
let apply_baseline ~baseline findings =
  let keys = List.map key findings in
  let fresh, pinned =
    List.partition
      (fun f -> not (List.exists (String.equal (key f)) baseline))
      findings
  in
  let stale =
    List.filter (fun k -> not (List.exists (String.equal k) keys)) baseline
  in
  (fresh, pinned, stale)
