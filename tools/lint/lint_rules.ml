(* The repo-specific rule set. Each rule is purely syntactic (it runs
   on the Parsetree, before any typing), so the checks are heuristic by
   design: they over-approximate slightly and rely on the allowlist
   attribute for the rare justified exception. The invariants they pin
   are the ones the paper's Theorems 4.1–4.3 silently assume:

   - digest-safety   digests are compared exactly (String.equal /
                     Ctime.equal), never with polymorphic =, compare,
                     Hashtbl.hash or List.mem;
   - determinism     the simulator and registry stay seed-reproducible:
                     no wall clocks, OS randomness, or order-dependent
                     Hashtbl traversal in deterministic paths;
   - logging         library code reports through Logs (Log_setup),
                     not stdout;
   - no-catchall     protocol code never swallows an arbitrary
                     exception: a deviation signal must reach the
                     alarm path. *)

open Parsetree

(* ---- Longident helpers ---------------------------------------------- *)

let rec lid_head = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, _) -> lid_head l
  | Longident.Lapply (l, _) -> lid_head l

let lid_components lid =
  match Longident.flatten lid with
  | components -> components
  | exception _ -> [ lid_head lid ]

let lid_string lid = String.concat "." (lid_components lid)

(* ---- digest-safety --------------------------------------------------- *)

let digest_safety_id = "digest-safety"
let digest_scope = [ "lib/crypto"; "lib/mtree"; "lib/pki"; "lib/hashsig"; "lib/core" ]
let poly_eq_ops = [ "="; "<>"; "=="; "!=" ]

let banned_polymorphic =
  [
    ("Stdlib.compare", "use String.compare / Int.compare on the concrete type");
    ("compare", "use String.compare / Int.compare on the concrete type");
    ("Hashtbl.hash", "polymorphic hashing of digest-bearing values");
    ("List.mem", "use List.exists with an explicit equality");
    ("List.assoc", "use an explicit lookup with explicit equality");
    ("List.mem_assoc", "use List.exists with an explicit equality");
  ]

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  nn = 0
  ||
  let rec go i =
    i + nn <= nh && (String.equal (String.sub haystack i nn) needle || go (i + 1))
  in
  go 0

(* Identifier names that suggest a value is (or contains) a digest,
   register or signature — the values Theorems 4.1–4.3 need compared
   exactly. Deliberately broad; allowlist the false positives. *)
let suggestive_fragments = [ "digest"; "sigma"; "root"; "tag"; "sig"; "hmac" ]
let suggestive_exact = [ "last"; "mac" ]

let suggestive_name name =
  let name = String.lowercase_ascii name in
  (not (String.equal name "hashtbl"))
  && (List.exists (String.equal name) suggestive_exact
     || List.exists (fun frag -> contains ~needle:frag name) suggestive_fragments)

(* Does the operand mention any digest-suggestive identifier, module
   path component or record field? *)
let mentions_digest expr =
  let found = ref false in
  let mark lid = if List.exists suggestive_name (lid_components lid) then found := true in
  let default = Ast_iterator.default_iterator in
  let iterator =
    {
      default with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> mark txt
          | Pexp_field (_, { txt; _ }) | Pexp_setfield (_, { txt; _ }, _) -> mark txt
          | _ -> ());
          default.expr self e);
    }
  in
  iterator.expr iterator expr;
  !found

let arithmetic_heads =
  [ "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr"; "abs"; "succ"; "pred" ]

(* Operands that cannot be digests: constants, argument-less
   constructors (None, [], true, `Signed, ...), integer arithmetic and
   length/compare results. Comparing those polymorphically is fine. *)
let rec safe_operand expr =
  match expr.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true
  | Pexp_variant (_, None) -> true
  | Pexp_constraint (e, _) -> safe_operand e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match lid_components txt with
      | [ op ] -> List.exists (String.equal op) arithmetic_heads
      | components -> (
          match List.rev components with
          | last :: _ -> List.exists (String.equal last) [ "length"; "compare"; "code"; "size" ]
          | [] -> false))
  | _ -> false

let digest_safety =
  {
    Lint_engine.id = digest_safety_id;
    summary =
      "no polymorphic =/compare/Hashtbl.hash/List.mem on digest-bearing values; route \
       digest equality through Ctime.equal or String.equal";
    default_scope = digest_scope;
    on_case = None;
    on_expr =
      Some
        (fun ctx e ->
          match e.pexp_desc with
          | Pexp_apply
              ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ }, [ (_, a); (_, b) ])
            when List.exists (String.equal op) poly_eq_ops ->
              if
                (not (safe_operand a || safe_operand b))
                && (mentions_digest a || mentions_digest b)
              then
                Lint_engine.report ctx digest_safety_id e.pexp_loc
                  (Printf.sprintf
                     "polymorphic (%s) on a digest-like value; use Ctime.equal (secret or \
                      attacker-timed digests) or String.equal"
                     op)
          | Pexp_ident { txt; _ } -> (
              let name = lid_string txt in
              match
                List.find_opt (fun (banned, _) -> String.equal banned name) banned_polymorphic
              with
              | Some (banned, hint) ->
                  Lint_engine.report ctx digest_safety_id e.pexp_loc
                    (Printf.sprintf "%s relies on polymorphic comparison; %s" banned hint)
              | None -> ())
          | _ -> ());
  }

(* ---- determinism ----------------------------------------------------- *)

let determinism_id = "determinism"
let determinism_scope = [ "lib/sim"; "lib/obs"; "lib/core" ]

let determinism =
  {
    Lint_engine.id = determinism_id;
    summary =
      "no Random.*, Sys.time, Unix.* or order-dependent Hashtbl.iter/fold in \
       seed-reproducible code (lib/sim, lib/obs, lib/core)";
    default_scope = determinism_scope;
    on_case = None;
    on_expr =
      Some
        (fun ctx e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              let head = lid_head txt in
              let name = lid_string txt in
              if String.equal head "Random" then
                Lint_engine.report ctx determinism_id e.pexp_loc
                  "Random.* breaks seed reproducibility; use Crypto.Prng"
              else if String.equal head "Unix" then
                Lint_engine.report ctx determinism_id e.pexp_loc
                  "Unix.* (wall clock / OS state) in a deterministic path"
              else begin
                match name with
                | "Sys.time" ->
                    Lint_engine.report ctx determinism_id e.pexp_loc
                      "Sys.time is wall-clock; simulated time is the engine round"
                | "Hashtbl.iter" | "Hashtbl.fold" ->
                    Lint_engine.report ctx determinism_id e.pexp_loc
                      (Printf.sprintf
                         "%s visits bindings in unspecified order; sort the bindings (or \
                          allowlist if provably order-independent)"
                         name)
                | _ -> ()
              end)
          | _ -> ());
  }

(* ---- logging --------------------------------------------------------- *)

let logging_id = "logging"
let logging_scope = [ "lib" ]

let printing_idents =
  [
    "Printf.printf";
    "Printf.eprintf";
    "Format.printf";
    "Format.eprintf";
    "print_endline";
    "print_string";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "prerr_endline";
    "prerr_string";
    "prerr_newline";
  ]

let logging =
  {
    Lint_engine.id = logging_id;
    summary = "no direct stdout/stderr printing in lib/ (use Logs via Log_setup)";
    default_scope = logging_scope;
    on_case = None;
    on_expr =
      Some
        (fun ctx e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } when List.exists (String.equal (lid_string txt)) printing_idents
            ->
              Lint_engine.report ctx logging_id e.pexp_loc
                (Printf.sprintf "%s prints directly from library code; use Logs (Log_setup)"
                   (lid_string txt))
          | _ -> ());
  }

(* ---- no-catchall ----------------------------------------------------- *)

let no_catchall_id = "no-catchall"
let catchall_scope = [ "lib/core" ]

let rec catch_all_pattern pat =
  match pat.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (inner, _) -> catch_all_pattern inner
  | Ppat_or (a, b) -> catch_all_pattern a || catch_all_pattern b
  | Ppat_exception inner -> catch_all_pattern inner
  | _ -> false

let guardless case = match case.pc_guard with None -> true | Some _ -> false

(* Two syntactic homes for a handler: `match ... with exception p -> ...`
   cases carry a Ppat_exception wrapper (caught by on_case), while
   `try ... with p -> ...` cases are bare patterns, so those are
   inspected at the enclosing Pexp_try (on_expr). *)
let no_catchall =
  {
    Lint_engine.id = no_catchall_id;
    summary =
      "no catch-all `try ... with _ ->` in protocol modules: a swallowed exception is a \
       swallowed deviation signal";
    default_scope = catchall_scope;
    on_case =
      Some
        (fun ctx case ->
          match case.pc_lhs.ppat_desc with
          | Ppat_exception inner when guardless case && catch_all_pattern inner ->
              Lint_engine.report ctx no_catchall_id case.pc_lhs.ppat_loc
                "catch-all exception case swallows protocol deviations; match the specific \
                 exception"
          | _ -> ());
    on_expr =
      Some
        (fun ctx e ->
          match e.pexp_desc with
          | Pexp_try (_, cases) ->
              List.iter
                (fun case ->
                  if guardless case && catch_all_pattern case.pc_lhs then
                    Lint_engine.report ctx no_catchall_id case.pc_lhs.ppat_loc
                      "catch-all `try ... with _ ->` swallows protocol deviations; match \
                       the specific exception")
                cases
          | _ -> ());
  }

(* ---- store-io -------------------------------------------------------- *)

let store_io_id = "store-io"

(* Every lib/ subtree except the two sanctioned writers: lib/store owns
   durability (WAL + snapshots, crash-safe framing), lib/obs owns
   report emission. Ad-hoc channel writes anywhere else bypass the
   checksummed, torn-tail-safe formats recovery depends on. *)
let store_io_scope =
  [
    "lib/bignum";
    "lib/core";
    "lib/crypto";
    "lib/hashsig";
    "lib/mtree";
    "lib/pki";
    "lib/rsa";
    "lib/sim";
    "lib/vcs";
    "lib/vdiff";
    "lib/wgraph";
    "lib/wire";
    "lib/workload";
  ]

let file_write_idents =
  [
    "open_out";
    "open_out_bin";
    "open_out_gen";
    "output_string";
    "output_bytes";
    "output_char";
    "output_byte";
    "output_value";
  ]

let store_io =
  {
    Lint_engine.id = store_io_id;
    summary =
      "no direct file writes outside lib/store (durability) and lib/obs (reports); \
       persistent state goes through Store's checksummed WAL/snapshot formats";
    default_scope = store_io_scope;
    on_case = None;
    on_expr =
      Some
        (fun ctx e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } ->
              let bare =
                match lid_components txt with
                | [ name ] | [ "Stdlib"; name ] -> name
                | _ -> ""
              in
              if List.exists (String.equal bare) file_write_idents then
                Lint_engine.report ctx store_io_id e.pexp_loc
                  (Printf.sprintf
                     "%s writes a file outside lib/store; durable state belongs in Store \
                      (WAL/snapshot), reports in Obs"
                     bare)
          | _ -> ());
  }

(* ---- net-io ---------------------------------------------------------- *)

let net_io_id = "net-io"

(* Unix (sockets, fds, select, signals, wall clock) is the I/O surface
   the deterministic core must never see: lib/net owns sockets and the
   event loop, lib/store owns durable file descriptors, lib/obs owns
   report emission. A Unix call anywhere else either breaks seed
   reproducibility or smuggles in an unframed I/O path that the fault
   proxy and the crash adversaries cannot exercise. *)
let net_io_scope =
  [
    "lib/bignum";
    "lib/core";
    "lib/crypto";
    "lib/hashsig";
    "lib/mtree";
    "lib/pki";
    "lib/rsa";
    "lib/sim";
    "lib/vcs";
    "lib/vdiff";
    "lib/wgraph";
    "lib/wire";
    "lib/workload";
  ]

let net_io =
  {
    Lint_engine.id = net_io_id;
    summary =
      "no Unix socket/file primitives in lib/ outside lib/net (sockets), lib/store \
       (durability) and lib/obs (reports)";
    default_scope = net_io_scope;
    on_case = None;
    on_expr =
      Some
        (fun ctx e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } when String.equal (lid_head txt) "Unix" ->
              Lint_engine.report ctx net_io_id e.pexp_loc
                (Printf.sprintf
                   "%s reaches the OS from pure library code; sockets belong in lib/net, \
                    durable fds in lib/store, report emission in lib/obs"
                   (lid_string txt))
          | _ -> ());
  }

(* ---- fsync-confinement ----------------------------------------------- *)

let fsync_confinement_id = "fsync-confinement"

(* Durability barriers are the group-commit scheduler's to place: one
   fsync per dirty stream per flush, sequenced against checkpoint
   renames. An fsync anywhere else — including lib/net and lib/obs,
   which net-io sanctions for other Unix calls — either lies about
   durability (syncing a fd the store still has staged records for) or
   silently doubles the write-path cost the BENCH_store numbers pin. *)
let fsync_confinement_scope =
  net_io_scope @ [ "lib/net"; "lib/obs" ]

let fsync_idents = [ "Unix.fsync"; "Unix.fdatasync" ]

let fsync_confinement =
  {
    Lint_engine.id = fsync_confinement_id;
    summary =
      "Unix.fsync/fdatasync only inside lib/store: durability barriers belong to the \
       store's group-commit flush, nowhere else";
    default_scope = fsync_confinement_scope;
    on_case = None;
    on_expr =
      Some
        (fun ctx e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ }
            when List.exists (String.equal (lid_string txt)) fsync_idents ->
              Lint_engine.report ctx fsync_confinement_id e.pexp_loc
                (Printf.sprintf
                   "%s outside lib/store; durability barriers go through Store.flush \
                    (group commit), never ad-hoc syncs"
                   (lid_string txt))
          | _ -> ());
  }

(* ---- obs-scope-naming ------------------------------------------------ *)

let obs_scope_naming_id = "obs-scope-naming"

(* Everywhere metrics are registered. The telemetry plane joins
   per-process registries by full dotted name (reports, admin
   snapshots, `tcvs_cli top`), so the names must stay a predictable
   hierarchy: the scope carries the dots ("net.daemon",
   "store.group_commit"), the metric name is one lowercase segment
   ("dedup_hits"), and nothing registers at the root where it would
   collide across components. Purely syntactic: only literal strings
   are checked; computed names ("sent." ^ kind) and locally-opened
   scope algebra (Obs.Scope.(v "a" / b)) are skipped. *)
let obs_scope_naming_scope = [ "lib"; "bin"; "bench"; "examples"; "tools" ]

let scope_maker_idents = [ "Obs.Scope.v"; "Scope.v" ]
let metric_maker_idents = [ "Obs.counter"; "Obs.histogram"; "Obs.set_gauge" ]

let valid_segment s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false) s

let valid_scope_path s =
  String.length s > 0 && List.for_all valid_segment (String.split_on_char '.' s)

let literal_string expr =
  match expr.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

let obs_scope_naming =
  {
    Lint_engine.id = obs_scope_naming_id;
    summary =
      "metric namespaces follow component.sub.metric: Obs.Scope.v literals are dotted \
       lowercase paths, Obs.counter/histogram/set_gauge literal names are one lowercase \
       segment and carry an explicit ~scope";
    default_scope = obs_scope_naming_scope;
    on_case = None;
    on_expr =
      Some
        (fun ctx e ->
          match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
              let head = lid_string txt in
              if List.exists (String.equal head) scope_maker_idents then
                List.iter
                  (fun ((lbl : Asttypes.arg_label), arg) ->
                    match (lbl, literal_string arg) with
                    | Asttypes.Nolabel, Some s when not (valid_scope_path s) ->
                        Lint_engine.report ctx obs_scope_naming_id arg.pexp_loc
                          (Printf.sprintf
                             "scope %S is not a dotted lowercase path; each '.'-separated \
                              segment must match [a-z][a-z0-9_]*"
                             s)
                    | _ -> ())
                  args
              else if List.exists (String.equal head) metric_maker_idents then begin
                let has_scope =
                  List.exists
                    (fun ((lbl : Asttypes.arg_label), _) ->
                      match lbl with
                      | Asttypes.Labelled "scope" | Asttypes.Optional "scope" -> true
                      | _ -> false)
                    args
                in
                List.iter
                  (fun ((lbl : Asttypes.arg_label), arg) ->
                    match (lbl, literal_string arg) with
                    | Asttypes.Nolabel, Some name ->
                        if not (valid_segment name) then
                          Lint_engine.report ctx obs_scope_naming_id arg.pexp_loc
                            (Printf.sprintf
                               "metric name %S is not a single lowercase segment \
                                ([a-z][a-z0-9_]*); the hierarchy lives in the scope, not \
                                the name"
                               name);
                        if not has_scope then
                          Lint_engine.report ctx obs_scope_naming_id e.pexp_loc
                            (Printf.sprintf
                               "%s %S registers a root-level metric; pass ~scope so the \
                                name lands under its component's namespace"
                               head name)
                    | _ -> ())
                  args
              end
          | _ -> ());
  }

let all =
  [
    digest_safety;
    determinism;
    logging;
    no_catchall;
    store_io;
    net_io;
    fsync_confinement;
    obs_scope_naming;
  ]
