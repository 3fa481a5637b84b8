(* Whole-repo call graph for the interprocedural lint tier.

   The graph is built from the parsetrees alone (compiler-libs, no
   typing), so resolution is a deliberate over-approximation governed
   by one contract, stated here and tested in test_lint.ml:

   - every top-level (or submodule-top-level) value binding of a file
     is a {e def}; everything nested inside it — local functions,
     lambdas passed to iterators, `let rec ... in` loops — collapses
     into the enclosing def, so an edge out of any nested code is an
     edge out of the def;
   - a reference resolved through a module alias (`module M = Other`)
     or through the library layout (`Tcvs.Harness.run`,
     `Store.Shard_db.create`) produces an edge with [Aliased]
     provenance; an alias created by a functor application
     (`module M = F(X)`) routes `M.f` to `F.f` with [Functor_app]
     provenance — the functor body is analysed once, for all
     applications, which over-approximates instantiation-specific
     behaviour;
   - an identifier that names a known def but does {e not} appear in
     call-head position (it is passed to an iterator, stored in a
     record, returned) still produces an edge, with [First_class]
     provenance: whoever receives the value may call it, so the
     enclosing def is charged with the call. This is the
     over-approximation that makes reachability sound for first-class
     functions without data-flow analysis;
   - a bare name that an enclosing [fun], [let], [match] case, [for]
     or let-op pattern binds is that local, never a call to the
     top-level def it shadows (a punned [~durability] argument does
     not keep a [durability] accessor alive);
   - references the resolver cannot attribute to a def in the scanned
     file set (stdlib, external libraries, record fields) are kept as
     {e extern facts} on the def — the reachability rules classify
     those (blocking primitives, allocators) by name.

   Top-level side-effecting bindings (`let () = ...`, plain-pattern
   bindings) aggregate into one `(init)` pseudo-def per module, so
   module-initialisation edges exist but are only reachable if a rule
   roots them explicitly. *)

open Parsetree

type provenance = Direct | Aliased | Functor_app | First_class

let provenance_label = function
  | Direct -> "direct"
  | Aliased -> "aliased"
  | Functor_app -> "functor"
  | First_class -> "first-class"

(* Strength order for deduplication: when several references connect
   the same pair of defs, the strongest (most concrete) provenance is
   kept for diagnostics. *)
let provenance_rank = function
  | Direct -> 0
  | Aliased -> 1
  | Functor_app -> 2
  | First_class -> 3

type edge = { e_target : string; e_prov : provenance; e_loc : Location.t }

(* Allocation facts are aggregated per def and kind: one finding per
   (def, kind) keeps the baseline stable while the count and first
   location keep the diagnostic concrete. *)
type alloc_kind = Closure | List_cons

let alloc_kind_label = function Closure -> "closure" | List_cons -> "list-cons"

type def = {
  d_id : string; (* "Daemon.handle_frame", "Obs.Journal.event" *)
  d_file : string; (* repo-relative path *)
  d_loc : Location.t;
  (* Function defs (the binding carries syntactic parameters) run per
     call; value defs run once, at module initialisation, so per-call
     reachability must not traverse or scan them. Point-free function
     definitions (`let f = List.map g`) are misclassified as value defs
     — the one stated under-approximation of the contract. *)
  mutable d_is_fun : bool;
  mutable d_edges : edge list;
  mutable d_extern : (string * Location.t) list; (* unresolved refs, newest first *)
  mutable d_closures : int;
  mutable d_closure_loc : Location.t option;
  mutable d_cons : int;
  mutable d_cons_loc : Location.t option;
  mutable d_allows : string list; (* [@tcvs.lint.allow] ids in force at the binding *)
  mutable d_roots : string list; (* [@tcvs.lint.root "tag"] markers *)
}

type mutable_site = {
  m_file : string;
  m_id : string; (* "Obs.slots" *)
  m_loc : Location.t;
  m_kind : string; (* "ref", "Hashtbl.create", "record with mutable fields", ... *)
  m_allows : string list;
}

type t = {
  defs : (string, def) Hashtbl.t;
  mutable mutables : mutable_site list;
  by_file : (string, string list ref) Hashtbl.t; (* file -> def ids *)
}

(* ---- Longident helpers ---------------------------------------------- *)

let rec lid_head = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, _) -> lid_head l
  | Longident.Lapply (l, _) -> lid_head l

let lid_components lid =
  match Longident.flatten lid with
  | components -> components
  | exception _ -> [ lid_head lid ]

(* ---- Attributes ------------------------------------------------------ *)

let string_payload (attr : attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let ids_of_attr name (attr : attribute) =
  if not (String.equal attr.attr_name.txt name) then []
  else
    match string_payload attr with
    | Some s -> String.split_on_char ' ' s |> List.filter (fun id -> id <> "")
    | None -> []

let allows_of_attrs attrs = List.concat_map (ids_of_attr "tcvs.lint.allow") attrs
let roots_of_attrs attrs = List.concat_map (ids_of_attr "tcvs.lint.root") attrs

(* ---- The per-file environment ---------------------------------------- *)

(* Bare identifiers are mostly local variables; recording them all
   would drown the graph. The reachability rules only care about the
   allocator and channel primitives below, so unresolved bare
   references are kept iff watched. Qualified references are always
   kept (their module prefix makes them cheap to classify). *)
let watched_bare =
  [
    "ref";
    "^";
    "@";
    "output_string";
    "output_bytes";
    "output_char";
    "output_byte";
    "output_value";
    "flush";
    "input_line";
    "input_byte";
    "input_char";
    "really_input";
    "really_input_string";
  ]

type alias = { a_name : string; a_target : string list; a_functor : bool }

type file_env = {
  f_file : string;
  f_mod : string; (* capitalized basename: "Daemon" *)
  mutable f_aliases : alias list; (* all scopes, flattened *)
  mutable f_opens : string list list;
  mutable f_locals : string list; (* names an enclosing pattern binds *)
  mutable f_mutable_fields : string list; (* field names declared mutable *)
  f_structure : structure;
}

let module_name_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let def_id env path name = String.concat "." ((env.f_mod :: path) @ [ name ])

(* ---- Pass 1: defs, aliases, opens, mutable toplevel state ------------ *)

let allocator_heads =
  [
    ("ref", "ref");
    ("Hashtbl.create", "Hashtbl.create");
    ("Queue.create", "Queue.create");
    ("Stack.create", "Stack.create");
    ("Buffer.create", "Buffer.create");
    ("Bytes.create", "Bytes.create");
    ("Bytes.make", "Bytes.make");
    ("Array.make", "Array.make");
    ("Array.init", "Array.init");
    ("Array.create_float", "Array.create_float");
  ]

(* Is [expr] (a toplevel binding's RHS) shared mutable state? Searches
   outside lambdas only: a function that allocates per call creates
   per-call state, not shared state. Mutex/Atomic/Domain.DLS values are
   domain-safe by construction and exempt. *)
let rec mutable_kind_of mutable_fields expr =
  match expr.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> None
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> mutable_kind_of mutable_fields e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      let name = String.concat "." (lid_components txt) in
      match List.assoc_opt name allocator_heads with
      | Some kind -> Some kind
      | None ->
          List.find_map (fun (_, a) -> mutable_kind_of mutable_fields a) args)
  | Pexp_record (fields, _) ->
      if
        List.exists
          (fun ((lid : Longident.t Asttypes.loc), _) ->
            match List.rev (lid_components lid.txt) with
            | f :: _ -> List.exists (String.equal f) mutable_fields
            | [] -> false)
          fields
      then Some "record with mutable fields"
      else
        List.find_map (fun (_, e) -> mutable_kind_of mutable_fields e) fields
  | Pexp_array _ -> Some "array literal"
  | Pexp_tuple es -> List.find_map (mutable_kind_of mutable_fields) es
  | Pexp_let (_, _, e) | Pexp_sequence (_, e) -> mutable_kind_of mutable_fields e
  | _ -> None

let rec binding_names pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (p, { txt; _ }) -> txt :: binding_names p
  | Ppat_tuple ps -> List.concat_map binding_names ps
  | Ppat_constraint (p, _) -> binding_names p
  | Ppat_construct (_, Some (_, p)) -> binding_names p
  | Ppat_record (fields, _) -> List.concat_map (fun (_, p) -> binding_names p) fields
  | _ -> []

let collect_pass1 graph env =
  let add_def ?(allows = []) ?(roots = []) path name loc =
    let id = def_id env path name in
    if not (Hashtbl.mem graph.defs id) then begin
      let def =
        {
          d_id = id;
          d_file = env.f_file;
          d_loc = loc;
          d_is_fun = false;
          d_edges = [];
          d_extern = [];
          d_closures = 0;
          d_closure_loc = None;
          d_cons = 0;
          d_cons_loc = None;
          d_allows = allows;
          d_roots = roots;
        }
      in
      Hashtbl.replace graph.defs id def;
      let ids =
        match Hashtbl.find_opt graph.by_file env.f_file with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.replace graph.by_file env.f_file r;
            r
      in
      ids := id :: !ids
    end
    else begin
      (* merged pseudo-def ((init)): accumulate attributes *)
      let def = Hashtbl.find graph.defs id in
      def.d_allows <- allows @ def.d_allows;
      def.d_roots <- roots @ def.d_roots
    end
  in
  let rec structure path ~floating_allows items =
    ignore
      (List.fold_left
         (fun floating item -> structure_item path ~floating_allows:floating item)
         floating_allows items)
  and structure_item path ~floating_allows item =
    match item.pstr_desc with
    | Pstr_attribute attr ->
        (* floating [@@@tcvs.lint.allow]: applies to the rest of the file *)
        ids_of_attr "tcvs.lint.allow" attr @ floating_allows
    | Pstr_value (_, bindings) ->
        List.iter
          (fun vb ->
            let allows = allows_of_attrs vb.pvb_attributes @ floating_allows in
            let roots = roots_of_attrs vb.pvb_attributes in
            (match binding_names vb.pvb_pat with
            | [] -> add_def ~allows ~roots path "(init)" vb.pvb_loc
            | names ->
                List.iter (fun n -> add_def ~allows ~roots path n vb.pvb_loc) names);
            (* shared mutable state at module toplevel *)
            match mutable_kind_of env.f_mutable_fields vb.pvb_expr with
            | Some kind ->
                let name =
                  match binding_names vb.pvb_pat with n :: _ -> n | [] -> "(init)"
                in
                graph.mutables <-
                  {
                    m_file = env.f_file;
                    m_id = def_id env path name;
                    m_loc = vb.pvb_loc;
                    m_kind = kind;
                    m_allows = allows;
                  }
                  :: graph.mutables
            | None -> ())
          bindings;
        floating_allows
    | Pstr_type (_, decls) ->
        List.iter
          (fun decl ->
            match decl.ptype_kind with
            | Ptype_record labels ->
                List.iter
                  (fun lbl ->
                    if lbl.pld_mutable = Asttypes.Mutable then
                      env.f_mutable_fields <- lbl.pld_name.txt :: env.f_mutable_fields)
                  labels
            | _ -> ())
          decls;
        floating_allows
    | Pstr_module mb ->
        (match mb.pmb_name.txt with
        | None -> ()
        | Some name -> module_expr path name mb.pmb_expr);
        floating_allows
    | Pstr_recmodule mbs ->
        List.iter
          (fun mb ->
            match mb.pmb_name.txt with
            | None -> ()
            | Some name -> module_expr path name mb.pmb_expr)
          mbs;
        floating_allows
    | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
        env.f_opens <- lid_components txt :: env.f_opens;
        floating_allows
    | _ -> floating_allows
  and module_expr path name mexpr =
    match mexpr.pmod_desc with
    | Pmod_ident { txt; _ } ->
        env.f_aliases <-
          { a_name = name; a_target = lid_components txt; a_functor = false }
          :: env.f_aliases
    | Pmod_apply (f, _) -> (
        (* module M = F(X): route M.* to the functor body F.* *)
        let rec functor_head m =
          match m.pmod_desc with
          | Pmod_ident { txt; _ } -> Some (lid_components txt)
          | Pmod_apply (f, _) -> functor_head f
          | _ -> None
        in
        match functor_head f with
        | Some target ->
            env.f_aliases <-
              { a_name = name; a_target = target; a_functor = true } :: env.f_aliases
        | None -> ())
    | Pmod_structure items -> structure (path @ [ name ]) ~floating_allows:[] items
    | Pmod_constraint (inner, _) -> module_expr path name inner
    | Pmod_functor (_, body) ->
        (* functor body: defs live under the functor's name; every
           application aliases back here *)
        module_expr path name body
    | Pmod_unpack _ ->
        (* `module Log = (val e)`: e runs at module initialisation *)
        add_def path "(init)" mexpr.pmod_loc
    | _ -> ()
  in
  structure [] ~floating_allows:[] env.f_structure

(* ---- Pass 2: reference resolution ------------------------------------ *)

type universe = {
  graph : t;
  envs : (string, file_env) Hashtbl.t; (* module name -> env *)
  libraries : (string * string) list; (* dir -> library name *)
}

let env_for_module u name = Hashtbl.find_opt u.envs name

let library_dir u name =
  List.find_map
    (fun (dir, lib) ->
      if String.equal (String.capitalize_ascii lib) name then Some dir else None)
    u.libraries

let dir_of_file file = Filename.dirname file

(* Resolve [comps] from [env]'s scope (current submodule [path]) to a
   def id. Returns the id plus whether an alias / functor alias was
   crossed. Depth-limited: alias chains in real code are short. *)
(* Identity re-exports (`module Shard_db = Shard_db` in store.ml) name
   the like-named compilation unit, not the alias itself: routing them
   back through the alias table would loop forever. *)
let identity_alias alias =
  match alias.a_target with
  | [ t ] -> String.equal t alias.a_name
  | _ -> false

let rec resolve u env path comps ~depth =
  if depth > 6 then None
  else
    match comps with
    | [] -> None
    | _ -> (
        (* innermost submodule scope outward: finds plain defs and defs
           inside this file's submodules / functor bodies *)
        let rec try_scope p =
          let id = String.concat "." ((env.f_mod :: p) @ comps) in
          if Hashtbl.mem u.graph.defs id then Some (id, `Plain)
          else
            match List.rev p with
            | [] -> None
            | _ :: outer -> try_scope (List.rev outer)
        in
        let via_alias () =
          match comps with
          | head :: rest -> (
              match
                List.find_opt (fun a -> String.equal a.a_name head) env.f_aliases
              with
              | Some alias when not (identity_alias alias) -> (
                  match
                    resolve u env path (alias.a_target @ rest) ~depth:(depth + 1)
                  with
                  | Some (id, _) -> Some (id, if alias.a_functor then `Functor else `Alias)
                  | None -> None)
              | Some _ | None -> None)
          | [] -> None
        in
        let via_unit () =
          match comps with
          | head :: rest -> (
              match env_for_module u head with
              | Some tenv ->
                  (* head names a scanned file: resolve the rest inside it *)
                  resolve_in_file u tenv rest ~depth
              | None -> (
                  (* head may be a library wrapper: Tcvs.Harness.run *)
                  match library_dir u head with
                  | None -> None
                  | Some dir -> (
                      match rest with
                      | [] -> None
                      | m :: rest' -> (
                          match env_for_module u m with
                          | Some tenv when String.equal (dir_of_file tenv.f_file) dir ->
                              let r = resolve_in_file u tenv rest' ~depth in
                              (match r with
                              | Some (id, `Plain) -> Some (id, `Alias)
                              | r -> r)
                          | _ -> None))))
          | [] -> None
        in
        let via_opens () =
          match comps with
          | [ _ ] ->
              List.find_map
                (fun o -> resolve u env path (o @ comps) ~depth:(depth + 1))
                env.f_opens
          | _ -> None
        in
        match via_alias () with
        | Some r -> Some r
        | None -> (
            match try_scope path with
            | Some r -> Some r
            | None -> (
                match via_unit () with Some r -> Some r | None -> via_opens ())))

and resolve_in_file u tenv comps ~depth =
  if depth > 6 then None
  else
    match comps with
    | [] -> None
    | _ -> (
        let id = String.concat "." (tenv.f_mod :: comps) in
        if Hashtbl.mem u.graph.defs id then Some (id, `Plain)
        else
          (* the head may be an alias inside the target file
             (Store.Shard_db.create with `module Shard_db = Shard_db`) *)
          match comps with
          | head :: rest when rest <> [] -> (
              match
                List.find_opt (fun a -> String.equal a.a_name head) tenv.f_aliases
              with
              | Some alias when identity_alias alias -> (
                  (* re-exported compilation unit *)
                  match env_for_module u head with
                  | Some tenv' when tenv' != tenv -> (
                      match resolve_in_file u tenv' rest ~depth:(depth + 1) with
                      | Some (id, _) ->
                          Some (id, if alias.a_functor then `Functor else `Alias)
                      | None -> None)
                  | _ -> None)
              | Some alias -> (
                  match
                    resolve u tenv [] (alias.a_target @ rest) ~depth:(depth + 1)
                  with
                  | Some (id, _) ->
                      Some (id, if alias.a_functor then `Functor else `Alias)
                  | None -> None)
              | None -> None)
          | _ -> None)

let add_edge def target prov loc =
  match List.find_opt (fun e -> String.equal e.e_target target) def.d_edges with
  | Some e when provenance_rank e.e_prov <= provenance_rank prov -> ()
  | Some e ->
      def.d_edges <-
        { e_target = target; e_prov = prov; e_loc = loc }
        :: List.filter (fun e' -> e' != e) def.d_edges
  | None -> def.d_edges <- { e_target = target; e_prov = prov; e_loc = loc } :: def.d_edges

let record_ref u env path def ~head txt loc =
  let comps = lid_components txt in
  match comps with
  | [ name ] when List.mem name env.f_locals ->
      () (* a parameter or local binding, not the def it shadows *)
  | _ -> (
  match resolve u env path comps ~depth:0 with
  | Some (target, via) ->
      if not (String.equal target def.d_id) then
        let prov =
          if not head then First_class
          else
            match via with
            | `Plain -> Direct
            | `Alias -> Aliased
            | `Functor -> Functor_app
        in
        add_edge def target prov loc
  | None ->
      let name = String.concat "." comps in
      if List.length comps >= 2 || List.exists (String.equal name) watched_bare then
        def.d_extern <- (name, loc) :: def.d_extern)

let collect_pass2 u env =
  let graph = u.graph in
  let find_def path name = Hashtbl.find_opt graph.defs (def_id env path name) in
  (* Walk [k] with the names [pats] bind in scope: a bare reference to
     one of them is the local, whatever top-level def it shadows. *)
  let bound pats k =
    let saved = env.f_locals in
    env.f_locals <- List.concat_map binding_names pats @ saved;
    k ();
    env.f_locals <- saved
  in
  (* expression walker: [def] is the charged def, [head] marks the
     callee position of an application *)
  let rec expr path def e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> record_ref u env path def ~head:false txt e.pexp_loc
    | Pexp_apply (f, args) ->
        (match f.pexp_desc with
        | Pexp_ident { txt; _ } -> record_ref u env path def ~head:true txt f.pexp_loc
        | _ -> expr path def f);
        List.iter (fun (_, a) -> expr path def a) args
    | Pexp_fun (_, default, pat, body) ->
        def.d_closures <- def.d_closures + 1;
        if def.d_closure_loc = None then def.d_closure_loc <- Some e.pexp_loc;
        Option.iter (expr path def) default;
        bound [ pat ] (fun () -> expr path def body)
    | Pexp_function cases ->
        def.d_closures <- def.d_closures + 1;
        if def.d_closure_loc = None then def.d_closure_loc <- Some e.pexp_loc;
        List.iter (case path def) cases
    | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some arg) ->
        def.d_cons <- def.d_cons + 1;
        if def.d_cons_loc = None then def.d_cons_loc <- Some e.pexp_loc;
        expr path def arg
    | Pexp_construct (_, arg) -> Option.iter (expr path def) arg
    | Pexp_variant (_, arg) -> Option.iter (expr path def) arg
    | Pexp_let (rec_flag, bindings, body) ->
        let pats = List.map (fun vb -> vb.pvb_pat) bindings in
        let rhs () = List.iter (fun vb -> binding_body path def vb.pvb_expr) bindings in
        if rec_flag = Asttypes.Recursive then bound pats rhs else rhs ();
        bound pats (fun () -> expr path def body)
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        expr path def scrut;
        List.iter (case path def) cases
    | Pexp_tuple es -> List.iter (expr path def) es
    | Pexp_record (fields, base) ->
        List.iter (fun (_, e) -> expr path def e) fields;
        Option.iter (expr path def) base
    | Pexp_field (e, _) -> expr path def e
    | Pexp_setfield (a, _, b) ->
        expr path def a;
        expr path def b
    | Pexp_array es -> List.iter (expr path def) es
    | Pexp_ifthenelse (c, t, e') ->
        expr path def c;
        expr path def t;
        Option.iter (expr path def) e'
    | Pexp_sequence (a, b) ->
        expr path def a;
        expr path def b
    | Pexp_while (c, body) ->
        expr path def c;
        expr path def body
    | Pexp_for (pat, lo, hi, _, body) ->
        expr path def lo;
        expr path def hi;
        bound [ pat ] (fun () -> expr path def body)
    | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> expr path def e
    | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }, e) ->
        (* `M.(e)` and `let open M in e`: M's names are in scope in e *)
        let saved = env.f_opens in
        env.f_opens <- lid_components txt :: saved;
        expr path def e;
        env.f_opens <- saved
    | Pexp_lazy e | Pexp_assert e | Pexp_newtype (_, e) | Pexp_open (_, e) ->
        expr path def e
    | Pexp_send (e, _) -> expr path def e
    | Pexp_setinstvar (_, e) -> expr path def e
    | Pexp_letmodule ({ txt = Some name; _ }, { pmod_desc = Pmod_ident { txt; _ }; _ }, body)
      ->
        (* `let module J = Obs.Json in e`: a local alias, as at toplevel *)
        let saved = env.f_aliases in
        env.f_aliases <-
          { a_name = name; a_target = lid_components txt; a_functor = false } :: saved;
        expr path def body;
        env.f_aliases <- saved
    | Pexp_letmodule (_, mexpr, body) ->
        module_in_expr path def mexpr;
        expr path def body
    | Pexp_letexception (_, body) -> expr path def body
    | Pexp_override fields -> List.iter (fun (_, e) -> expr path def e) fields
    | Pexp_letop { let_; ands; body } ->
        List.iter
          (fun op ->
            record_ref u env path def ~head:true (Longident.Lident op.pbop_op.txt)
              op.pbop_op.loc;
            expr path def op.pbop_exp)
          (let_ :: ands);
        bound (List.map (fun op -> op.pbop_pat) (let_ :: ands)) (fun () -> expr path def body)
    | _ -> ()
  and case path def c =
    bound [ c.pc_lhs ] (fun () ->
        Option.iter (expr path def) c.pc_guard;
        expr path def c.pc_rhs)
  and module_in_expr path def mexpr =
    match mexpr.pmod_desc with
    | Pmod_structure items ->
        List.iter
          (fun item ->
            match item.pstr_desc with
            | Pstr_value (_, bindings) ->
                List.iter (fun vb -> binding_body path def vb.pvb_expr) bindings
            | _ -> ())
          items
    | _ -> ()
  (* peel the binding's own lambda chain: `let f x y = body` allocates
     no closure when applied fully *)
  and binding_body path def e =
    match e.pexp_desc with
    | Pexp_fun (_, default, pat, body) ->
        Option.iter (expr path def) default;
        bound [ pat ] (fun () -> binding_body path def body)
    | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> binding_body path def body
    | Pexp_function cases -> List.iter (case path def) cases
    | _ -> expr path def e
  in
  let rec is_function e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> true
    | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> is_function body
    | _ -> false
  in
  let rec structure path items = List.iter (structure_item path) items
  and structure_item path item =
    match item.pstr_desc with
    | Pstr_value (_, bindings) ->
        List.iter
          (fun vb ->
            let def =
              match binding_names vb.pvb_pat with
              | name :: _ -> find_def path name
              | [] -> find_def path "(init)"
            in
            match def with
            | Some def ->
                if is_function vb.pvb_expr then def.d_is_fun <- true;
                binding_body path def vb.pvb_expr
            | None -> ())
          bindings
    | Pstr_module mb -> (
        match mb.pmb_name.txt with
        | None -> ()
        | Some name -> module_expr path name mb.pmb_expr)
    | Pstr_recmodule mbs ->
        List.iter
          (fun mb ->
            match mb.pmb_name.txt with
            | None -> ()
            | Some name -> module_expr path name mb.pmb_expr)
          mbs
    | _ -> ()
  and module_expr path name mexpr =
    match mexpr.pmod_desc with
    | Pmod_structure items -> structure (path @ [ name ]) items
    | Pmod_constraint (inner, _) -> module_expr path name inner
    | Pmod_functor (_, body) -> module_expr path name body
    | Pmod_unpack e -> Option.iter (fun def -> expr path def e) (find_def path "(init)")
    | _ -> ()
  in
  structure [] env.f_structure

(* ---- Build ----------------------------------------------------------- *)

let build ?(libraries = []) files =
  let graph = { defs = Hashtbl.create 512; mutables = []; by_file = Hashtbl.create 64 } in
  let envs = Hashtbl.create 64 in
  List.iter
    (fun (file, str) ->
      let env =
        {
          f_file = file;
          f_mod = module_name_of_file file;
          f_aliases = [];
          f_opens = [];
          f_locals = [];
          f_mutable_fields = [];
          f_structure = str;
        }
      in
      Hashtbl.replace envs env.f_mod env)
    files;
  Hashtbl.iter (fun _ env -> collect_pass1 graph env) envs;
  let u = { graph; envs; libraries } in
  Hashtbl.iter (fun _ env -> collect_pass2 u env) envs;
  graph

let parse_string ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  Parse.implementation lexbuf

let build_from_sources ?libraries sources =
  build ?libraries
    (List.map (fun (file, source) -> (file, parse_string ~file source)) sources)

(* ---- The repo's graph ------------------------------------------------- *)

(* The programs: every def under these trees is an entry point into
   lib/. Their test directories are not programs. *)
let program_dirs = [ "bin"; "bench"; "examples"; "tools"; "tcvs_bench" ]

(* dir -> dune library name, from the `(name ...)` field of each
   lib/<dir>/dune: the resolver needs it to route wrapped paths like
   Tcvs.Harness.run to lib/core/harness.ml. *)
let library_map ~root =
  let libdir = Filename.concat root "lib" in
  if not (Sys.file_exists libdir) then []
  else
    Sys.readdir libdir |> Array.to_list |> List.sort String.compare
    |> List.filter_map (fun entry ->
           let dune = Filename.concat (Filename.concat libdir entry) "dune" in
           if not (Sys.file_exists dune) then None
           else
             let tokens =
               String.split_on_char '\n' (Lint_config.read_file dune)
               |> List.concat_map (String.split_on_char ' ')
               |> List.concat_map (String.split_on_char '(')
               |> List.concat_map (String.split_on_char ')')
               |> List.filter (fun t -> String.trim t <> "")
             in
             let rec find = function
               | "name" :: name :: _ -> Some ("lib/" ^ entry, String.trim name)
               | _ :: rest -> find rest
               | [] -> None
             in
             find tokens)

(* The graph the deep tier audits: lib/ plus every program under
   [root], files labelled root-relative. *)
let of_repo ~root =
  let files =
    List.concat_map
      (fun dir ->
        if Sys.file_exists (Filename.concat root dir) then
          Lint_engine.ml_files ~dir ~root ()
          |> List.filter (fun rel ->
                 not (List.mem "test" (String.split_on_char '/' rel)))
        else [])
      ("lib" :: program_dirs)
  in
  build_from_sources ~libraries:(library_map ~root)
    (List.map (fun rel -> (rel, Lint_config.read_file (Filename.concat root rel))) files)

(* ---- Queries --------------------------------------------------------- *)

let find_def graph id = Hashtbl.find_opt graph.defs id

let defs_with_root graph tag =
  Hashtbl.fold
    (fun _ def acc ->
      if List.exists (String.equal tag) def.d_roots then def :: acc else acc)
    graph.defs []
  |> List.sort (fun a b -> String.compare a.d_id b.d_id)

let defs_in_file graph file =
  match Hashtbl.find_opt graph.by_file file with Some r -> !r | None -> []

(* BFS; the result maps every reached def to its parent hop, for path
   reconstruction. Roots map to themselves. Deterministic: the worklist
   is processed in sorted insertion order and edges are visited
   sorted. *)
let reachable ?(through_values = false) graph ~roots =
  let parent : (string, (string * provenance) option) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  List.iter
    (fun r ->
      if Hashtbl.mem graph.defs r && not (Hashtbl.mem parent r) then begin
        Hashtbl.replace parent r None;
        Queue.add r queue
      end)
    (List.sort String.compare roots);
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    let def = Hashtbl.find graph.defs id in
    (* value defs ran at module init: reaching the value does not run
       its body, so its out-edges do not propagate — except for roots,
       which the caller asserts are executed, and [through_values],
       where the question is what code a value needs, not what a call
       runs *)
    if through_values || def.d_is_fun || Hashtbl.find parent id = None then
      List.sort (fun a b -> String.compare a.e_target b.e_target) def.d_edges
      |> List.iter (fun e ->
             if not (Hashtbl.mem parent e.e_target) then begin
               Hashtbl.replace parent e.e_target (Some (id, e.e_prov));
               Queue.add e.e_target queue
             end)
  done;
  parent

let is_reached reached id = Hashtbl.mem reached id

(* "Root ←[direct] A ←[first-class] B" rendered forward:
   "Root →[direct] A →[first-class] B" *)
let path_to reached id =
  let rec climb acc id =
    match Hashtbl.find_opt reached id with
    | None | Some None -> id :: acc
    | Some (Some (parent, prov)) ->
        climb ((Printf.sprintf "→[%s] %s" (provenance_label prov) id) :: acc) parent
  in
  match climb [] id with
  | [] -> id
  | segs -> String.concat " " segs
