(* The tcvs-lint engine: parse one .ml file with the compiler's own
   parser (compiler-libs, no external dependency) and fold a set of
   syntactic rules over the Parsetree with an {!Ast_iterator}.

   The engine knows nothing about individual rules beyond their
   interface: a rule declares the directory prefixes it audits and two
   hooks, one per expression and one per try/match case. Suppression
   works at three levels, from coarse to surgical:

   - `.tcvs-lint` `rule <id> off` — rule disabled everywhere;
   - `.tcvs-lint` `allow <id> <path>` — rule suppressed in one file;
   - `[@tcvs.lint.allow "<id>"]` — attribute on the precise expression,
     value binding or structure item being excused ( [@@...] / [@@@...]
     for items and whole files), which is the preferred form because
     the justification lives next to the code. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule_id : string;
  message : string;
}

type ctx = {
  file : string;
  mutable findings : finding list;
  mutable allowed : string list; (* attribute-scoped suppressions, innermost last *)
}

type rule = {
  id : string;
  summary : string; (* one line, for --list-rules and the catalogue *)
  default_scope : string list; (* directory prefixes this rule audits *)
  on_expr : (ctx -> Parsetree.expression -> unit) option;
  on_case : (ctx -> Parsetree.case -> unit) option;
}

let report ctx rule_id (loc : Location.t) message =
  if not (List.exists (String.equal rule_id) ctx.allowed) then
    ctx.findings <-
      {
        file = ctx.file;
        line = loc.loc_start.pos_lnum;
        col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        rule_id;
        message;
      }
      :: ctx.findings

(* ---- Allow attributes ---------------------------------------------- *)

let allow_attribute_name = "tcvs.lint.allow"

(* [@tcvs.lint.allow "rule-id"] or [@tcvs.lint.allow "id1 id2"]. *)
let allows_of_attribute (attr : Parsetree.attribute) =
  if not (String.equal attr.attr_name.txt allow_attribute_name) then []
  else begin
    match attr.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] ->
        String.split_on_char ' ' s |> List.filter (fun id -> id <> "")
    | _ -> []
  end

let allows_of_attributes attrs = List.concat_map allows_of_attribute attrs

(* ---- Traversal ------------------------------------------------------ *)

let run_structure ~file ~rules structure =
  let ctx = { file; findings = []; allowed = [] } in
  let with_allows attrs f =
    match allows_of_attributes attrs with
    | [] -> f ()
    | ids ->
        let saved = ctx.allowed in
        ctx.allowed <- ids @ saved;
        f ();
        ctx.allowed <- saved
  in
  let default = Ast_iterator.default_iterator in
  let iterator =
    {
      default with
      expr =
        (fun self e ->
          with_allows e.pexp_attributes (fun () ->
              List.iter
                (fun rule ->
                  match rule.on_expr with Some hook -> hook ctx e | None -> ())
                rules;
              default.expr self e));
      case =
        (fun self c ->
          List.iter
            (fun rule -> match rule.on_case with Some hook -> hook ctx c | None -> ())
            rules;
          default.case self c);
      value_binding =
        (fun self vb ->
          with_allows vb.pvb_attributes (fun () -> default.value_binding self vb));
      structure_item =
        (fun self item ->
          match item.pstr_desc with
          | Pstr_attribute attr ->
              (* Floating [@@@tcvs.lint.allow "..."]: applies to the rest
                 of the file (attributes at the top are file-wide). *)
              ctx.allowed <- allows_of_attribute attr @ ctx.allowed
          | _ -> default.structure_item self item);
    }
  in
  iterator.structure iterator structure;
  List.rev ctx.findings

(* ---- Entry points --------------------------------------------------- *)

let applicable_rules ~(config : Lint_config.t) ~file rules =
  List.filter
    (fun rule ->
      (not (Lint_config.rule_disabled config rule.id))
      && (not (Lint_config.allowed_by_config config rule.id file))
      &&
      let scope =
        match Lint_config.scope_override config rule.id with
        | Some dirs -> dirs
        | None -> rule.default_scope
      in
      List.exists (fun dir -> Lint_config.path_has_prefix ~prefix:dir file) scope)
    rules

let parse_error_finding ~file (loc : Location.t) =
  {
    file;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    rule_id = "parse-error";
    message = "file does not parse; tcvs-lint cannot audit it";
  }

let lint_lexbuf ~config ~rules ~file lexbuf =
  match applicable_rules ~config ~file rules with
  | [] -> []
  | rules -> (
      match Parse.implementation lexbuf with
      | structure -> run_structure ~file ~rules structure
      | exception Syntaxerr.Error err ->
          [ parse_error_finding ~file (Syntaxerr.location_of_error err) ])

let lint_string ~config ~rules ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  lint_lexbuf ~config ~rules ~file lexbuf

(* [?file] is the repo-relative label used for scoping and reporting;
   [path] is where the bytes live (they differ under dune's sandbox). *)
let lint_file ~config ~rules ?file path =
  let file = match file with Some f -> f | None -> path in
  lint_string ~config ~rules ~file (Lint_config.read_file path)

(* [smoke-out] is the scratch directory of tcvs_bench's smoke test,
   which may run beside the lint's own tests under dune and removes
   files in it as it goes. *)
let skip_dirs = [ "_build"; ".git"; "_opam"; ".tcvs-lint.d"; "smoke-out" ]

(* Every .ml under [root]/[dir] as a root-relative path, in sorted
   order: rule scopes are prefix matches on these paths and output
   order must be stable under CI. An entry removed between the readdir
   that lists it and its stat is skipped. *)
let ml_files ?(dir = "") ~root () =
  let rec walk rel acc =
    let abs = if rel = "" then root else Filename.concat root rel in
    let entries = Sys.readdir abs in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        let rel = if rel = "" then entry else rel ^ "/" ^ entry in
        match Sys.is_directory (Filename.concat root rel) with
        | exception Sys_error _ -> acc
        | true -> if List.exists (String.equal entry) skip_dirs then acc else walk rel acc
        | false -> if Filename.check_suffix entry ".ml" then rel :: acc else acc)
      acc entries
  in
  List.rev (walk dir [])

let pp_finding fmt (f : finding) =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule_id f.message

let to_string f = Format.asprintf "%a" pp_finding f

let sort findings =
  List.sort
    (fun (a : finding) (b : finding) ->
      match String.compare a.file b.file with
      | 0 -> (
          match Int.compare a.line b.line with
          | 0 -> Int.compare a.col b.col
          | c -> c)
      | c -> c)
    findings
