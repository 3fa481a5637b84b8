module Scope = struct
  type t = string

  let root = ""
  let v s = s
  let ( / ) scope seg = if scope = "" then seg else scope ^ "." ^ seg
  let name s = s
end

(* ---- Registry ------------------------------------------------------- *)

(* One plain mutable cell per metric: a handle is the cell itself, so
   incr/observe write a field and never look anything up. The registry
   is one name -> slot list, searched only by get-or-create and the
   queries. All of it is plain module state: every process that links
   this library runs it on one domain, and the domain-safety lint rule
   flags this module the day two domain-spawn sites reach it. *)

type counter = {
  (* Volatile counters track physical-I/O event counts (flushes,
     fsyncs) that legitimately vary across durability modes; they are
     queryable but never rendered into the report. *)
  c_volatile : bool;
  mutable c_value : int;
}

(* 63 power-of-two buckets cover every OCaml int; bucket [i] counts
   values v with 2^(i-1) <= v < 2^i (v <= 0 lands in bucket 0). *)
let bucket_count = 63

type histogram = {
  h_volatile : bool;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
  buckets : int array;
}

type gauge = { mutable g : float; mutable g_set : bool }
type slot = Scounter of counter | Shist of histogram | Sgauge of gauge

let slots : (string * slot) list ref = ref [] (* newest registration first *)
let meta : (string, string) Hashtbl.t = Hashtbl.create 16
let tracing_on = ref false
let find_slot name = List.assoc_opt name !slots

let full_name scope name =
  match scope with None | Some "" -> name | Some s -> s ^ "." ^ name

let kind_name = function
  | Scounter _ -> "counter"
  | Shist _ -> "histogram"
  | Sgauge _ -> "gauge"

let mismatch name existing wanted =
  invalid_arg
    (Printf.sprintf "Obs: %S is registered as a %s, not a %s" name
       (kind_name existing) wanted)

let register full slot = slots := (full, slot) :: !slots

let counter ?scope ?(volatile = false) name =
  let full = full_name scope name in
  match find_slot full with
  | Some (Scounter c) -> c
  | Some s -> mismatch full s "counter"
  | None ->
      let c = { c_volatile = volatile; c_value = 0 } in
      register full (Scounter c);
      c

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let record_max c v = if v > c.c_value then c.c_value <- v

let histogram ?scope ?(volatile = false) name =
  let full = full_name scope name in
  match find_slot full with
  | Some (Shist h) -> h
  | Some s -> mismatch full s "histogram"
  | None ->
      let h =
        {
          h_volatile = volatile;
          count = 0;
          sum = 0;
          min_v = max_int;
          max_v = min_int;
          buckets = Array.make bucket_count 0;
        }
      in
      register full (Shist h);
      h

let bucket_of v =
  if v <= 0 then 0
  else begin
    (* Number of significant bits: v in [2^(b-1), 2^b). *)
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    min (bucket_count - 1) (bits 0 v)
  end

let observe h v =
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v;
  let i = bucket_of v in
  h.buckets.(i) <- h.buckets.(i) + 1

let set_gauge ?scope name v =
  let full = full_name scope name in
  match find_slot full with
  | Some (Sgauge g) ->
      g.g <- v;
      g.g_set <- true
  | Some s -> mismatch full s "gauge"
  | None -> register full (Sgauge { g = v; g_set = true })

let set_meta key v = Hashtbl.replace meta key v

(* ---- Queries -------------------------------------------------------- *)

let value name =
  match find_slot name with
  | Some (Scounter c) -> c.c_value
  | _ -> 0

let gauge_value name =
  match find_slot name with
  | Some (Sgauge g) when g.g_set -> Some g.g
  | _ -> None

let stats name =
  match find_slot name with
  | Some (Shist h) when h.count > 0 -> Some (h.count, h.sum, h.min_v, h.max_v)
  | _ -> None

(* ---- Trace ---------------------------------------------------------- *)

let set_tracing b = tracing_on := b
let tracing () = !tracing_on

module Trace = struct
  type event = { at : int; dur : int; scope : string; name : string; detail : string }

  let buf : event list ref = ref [] (* newest first *)

  let emit ?(scope = Scope.root) ?(dur = 0) ~at ~name detail =
    if !tracing_on then buf := { at; dur; scope = Scope.name scope; name; detail } :: !buf

  let events () = List.rev !buf
end

(* ---- Reset ---------------------------------------------------------- *)

let reset () =
  List.iter
    (fun (_, s) ->
      match s with
      | Scounter c -> c.c_value <- 0
      | Shist h ->
          h.count <- 0;
          h.sum <- 0;
          h.min_v <- max_int;
          h.max_v <- min_int;
          Array.fill h.buckets 0 bucket_count 0
      | Sgauge g ->
          g.g <- 0.;
          g.g_set <- false)
    !slots;
  Trace.buf := [];
  Hashtbl.reset meta

(* ---- JSON escaping (shared by Report and Journal) -------------------- *)

let add_escaped buf s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* ---- Report --------------------------------------------------------- *)

module Report = struct
  let escape = add_escaped

  let key buf indent name =
    Buffer.add_string buf indent;
    Buffer.add_char buf '"';
    escape buf name;
    Buffer.add_string buf "\": "

  let sorted_slots () = List.sort (fun (a, _) (b, _) -> String.compare a b) !slots

  (* Fixed float format: enough precision for per-op ratios, still
     byte-stable for equal inputs. *)
  let float_str v = Printf.sprintf "%.6f" v

  let obj buf ~indent entries render =
    if entries = [] then Buffer.add_string buf "{}"
    else begin
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_string buf ",\n";
          render e)
        entries;
      Buffer.add_char buf '\n';
      Buffer.add_string buf indent;
      Buffer.add_char buf '}'
    end

  let histogram_json buf (m : histogram) =
    Buffer.add_string buf
      (Printf.sprintf "{ \"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d, \"buckets\": ["
         m.count m.sum m.min_v m.max_v);
    let first = ref true in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          if not !first then Buffer.add_string buf ", ";
          first := false;
          Buffer.add_string buf (Printf.sprintf "[%d, %d]" i c)
        end)
      m.buckets;
    Buffer.add_string buf "] }"

  let trace_line (e : Trace.event) =
    let buf = Buffer.create 96 in
    Buffer.add_string buf (Printf.sprintf "{ \"at\": %d, \"dur\": %d, \"scope\": \"" e.at e.dur);
    escape buf e.scope;
    Buffer.add_string buf "\", \"name\": \"";
    escape buf e.name;
    Buffer.add_string buf "\", \"detail\": \"";
    escape buf e.detail;
    Buffer.add_string buf "\" }";
    Buffer.contents buf

  let trace_lines () = List.map trace_line (Trace.events ())

  (* [~volatile:true] (the live admin snapshot) also renders the
     wall-clock metrics the deterministic report must omit. *)
  let to_json ?(volatile = false) () =
    let buf = Buffer.create 4096 in
    let metrics = sorted_slots () in
    let counters =
      List.filter_map
        (fun (n, s) ->
          match s with
          | Scounter c when (volatile || not c.c_volatile) && c.c_value <> 0 ->
              Some (n, c.c_value)
          | _ -> None)
        metrics
    in
    let gauges =
      List.filter_map
        (fun (n, s) -> match s with Sgauge g when g.g_set -> Some (n, g) | _ -> None)
        metrics
    in
    let histograms =
      List.filter_map
        (fun (n, s) ->
          match s with
          | Shist h when (volatile || not h.h_volatile) && h.count > 0 -> Some (n, h)
          | _ -> None)
        metrics
    in
    let metas =
      (* Fold order is immaterial: sorted before rendering. *)
      (Hashtbl.fold [@tcvs.lint.allow "determinism"]) (fun k v acc -> (k, v) :: acc) meta []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    Buffer.add_string buf "{\n  \"schema\": \"tcvs-obs/1\",\n  \"meta\": ";
    obj buf ~indent:"  " metas (fun (k, v) ->
        key buf "    " k;
        Buffer.add_char buf '"';
        escape buf v;
        Buffer.add_char buf '"');
    Buffer.add_string buf ",\n  \"counters\": ";
    obj buf ~indent:"  " counters (fun (n, v) ->
        key buf "    " n;
        Buffer.add_string buf (string_of_int v));
    Buffer.add_string buf ",\n  \"gauges\": ";
    obj buf ~indent:"  " gauges (fun (n, g) ->
        key buf "    " n;
        Buffer.add_string buf (float_str g.g));
    Buffer.add_string buf ",\n  \"histograms\": ";
    obj buf ~indent:"  " histograms (fun (n, m) ->
        key buf "    " n;
        histogram_json buf m);
    if !tracing_on then begin
      Buffer.add_string buf ",\n  \"trace\": [";
      List.iteri
        (fun i line ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf "\n    ";
          Buffer.add_string buf line)
        (trace_lines ());
      Buffer.add_string buf "\n  ]"
    end;
    Buffer.add_string buf "\n}\n";
    Buffer.contents buf

  let write path =
    let json = to_json () in
    (* "-" means the user asked for the report on stdout; this is the
       one sanctioned stdout write in lib/. *)
    if path = "-" then (print_string [@tcvs.lint.allow "logging"]) json
    else begin
      let oc = open_out path in
      output_string oc json;
      close_out oc
    end
end

(* ---- Json: minimal parser for the library's own formats -------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Fail of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Fail (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = Stdlib.incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect ch =
      match peek () with
      | Some c when c = ch -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" ch)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.equal (String.sub s !pos l) word then begin
        pos := !pos + l;
        value
      end
      else fail "bad literal"
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short unicode escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | None -> fail "bad unicode escape"
              (* Our own emitters only use \u for control bytes;
                 anything wider degrades to '?'. *)
              | Some code -> Buffer.add_char buf (if code < 0x80 then Char.chr code else '?'))
          | _ -> fail "unknown escape");
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && is_num s.[!pos] do
        advance ()
      done;
      let lit = String.sub s start (!pos - start) in
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing bytes";
      v
    with
    | v -> Ok v
    | exception Fail msg -> Error msg

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

(* ---- Journal: per-process JSONL span journals ------------------------ *)

module Journal = struct
  type t = { oc : out_channel; proc : string; mutable n : int }

  let open_ ~proc path = { oc = open_out path; proc; n = 0 }

  let render ~proc ~n ?(user = -1) ?(span = -1) ?(dur_us = -1) ~round ~ev detail =
    let buf = Buffer.create 128 in
    Buffer.add_string buf "{\"proc\":\"";
    add_escaped buf proc;
    Buffer.add_string buf (Printf.sprintf "\",\"n\":%d,\"round\":%d" n round);
    if user >= 0 then Buffer.add_string buf (Printf.sprintf ",\"user\":%d" user);
    if span >= 0 then Buffer.add_string buf (Printf.sprintf ",\"span\":%d" span);
    Buffer.add_string buf ",\"ev\":\"";
    add_escaped buf ev;
    Buffer.add_string buf "\",\"detail\":\"";
    add_escaped buf detail;
    Buffer.add_char buf '"';
    if dur_us >= 0 then Buffer.add_string buf (Printf.sprintf ",\"dur_us\":%d" dur_us);
    Buffer.add_char buf '}';
    Buffer.contents buf

  (* One line per event, flushed eagerly so a killed process leaves a
     usable journal (the joiner tolerates a torn last line).

     Deep-lint justification: journaling is opt-in diagnostics
     (--journal); when enabled, the eager channel write IS the
     feature's durability contract, accepted on the event loop. *)
  let[@tcvs.lint.allow "event-loop-purity"] event t ?user ?span ?dur_us ~round ~ev detail =
    t.n <- t.n + 1;
    output_string t.oc (render ~proc:t.proc ~n:t.n ?user ?span ?dur_us ~round ~ev detail);
    output_char t.oc '\n';
    flush t.oc

  let close t = close_out t.oc
end

(* ---- Trace_join: merge per-process journals into one timeline -------- *)

module Trace_join = struct
  type jevent = {
    j_proc : string;
    j_n : int;
    j_round : int;
    j_user : int;
    j_span : int;
    j_dur_us : int;
    j_ev : string;
    j_detail : string;
  }

  type summary = {
    events : int;
    duplicates : int;
    malformed : int;
    spans : int;
    complete : int;
    orphans : int;
  }

  let parse_line line =
    match Json.parse line with
    | Error _ -> None
    | Ok v -> (
        let int k d = match Json.member k v with Some (Json.Int i) -> i | _ -> d in
        let str k = match Json.member k v with Some (Json.Str s) -> Some s | _ -> None in
        match (str "proc", str "ev") with
        | Some p, Some e ->
            Some
              {
                j_proc = p;
                j_n = int "n" 0;
                j_round = int "round" 0;
                j_user = int "user" (-1);
                j_span = int "span" (-1);
                j_dur_us = int "dur_us" (-1);
                j_ev = e;
                j_detail = (match str "detail" with Some d -> d | None -> "");
              }
        | _ -> None)

  (* Rank along the logical life of an op: client queue, router fan-out,
     proxy fault plane, daemon dispatch, execution, store flush, reply,
     return leg (router first, then the proxy — ties broken by proc
     name, and "proxy" < "router" matches the return path). Unknown
     events sort between the reply and its delivery so custom
     instrumentation stays visible without disturbing the known flow. *)
  let rank = function
    | "client.send" -> 0
    | "client.retransmit" | "router.route" | "router.dedup" -> 1
    | "proxy.to_server" | "proxy.drop" | "proxy.delay" | "proxy.duplicate" -> 2
    | "daemon.dispatch" | "daemon.dedup" -> 3
    | "daemon.execute" -> 4
    | "daemon.flush" | "store.flush" -> 5
    | "daemon.reply" -> 6
    | "proxy.to_client" | "router.reply" -> 7
    | "client.reply" -> 9
    | _ -> 8

  let completes ev = String.equal ev "client.reply"

  let event_cmp a b =
    let c = compare (a.j_round, rank a.j_ev) (b.j_round, rank b.j_ev) in
    if c <> 0 then c
    else
      let c = String.compare a.j_proc b.j_proc in
      if c <> 0 then c else Int.compare a.j_n b.j_n

  let render_event buf e =
    Buffer.add_string buf
      (Printf.sprintf "    r%d [%s/%d] %s \"%s\"" e.j_round e.j_proc e.j_n e.j_ev e.j_detail);
    if e.j_dur_us >= 0 then Buffer.add_string buf (Printf.sprintf " dur_us=%d" e.j_dur_us);
    Buffer.add_char buf '\n'

  (* [join lines] merges journal lines (from any number of files, in
     any order) into one deterministic round-ordered timeline. Exact
     duplicate lines — a journal listed twice, or replayed output — are
     dropped and counted; unparseable lines (torn tails from a killed
     process) are skipped and counted. The result depends only on the
     set of distinct well-formed lines, never on input order. *)
  let join lines =
    let seen = Hashtbl.create 256 in
    let parsed = ref [] in
    let dup = ref 0 in
    let bad = ref 0 in
    List.iter
      (fun line ->
        let line = String.trim line in
        if line <> "" then begin
          if Hashtbl.mem seen line then Stdlib.incr dup
          else begin
            Hashtbl.replace seen line ();
            match parse_line line with
            | Some e -> parsed := e :: !parsed
            | None -> Stdlib.incr bad
          end
        end)
      lines;
    let events = List.sort event_cmp !parsed in
    (* Group spanned events by (origin user, span id); span ids are
       per-user sequence numbers, so the pair is the op's identity. *)
    let spans : (int * int, jevent list ref) Hashtbl.t = Hashtbl.create 64 in
    let span_keys = ref [] in
    let unspanned = ref [] in
    List.iter
      (fun e ->
        if e.j_span < 0 then unspanned := e :: !unspanned
        else begin
          let k = (e.j_user, e.j_span) in
          match Hashtbl.find_opt spans k with
          | Some r -> r := e :: !r
          | None ->
              Hashtbl.replace spans k (ref [ e ]);
              span_keys := k :: !span_keys
        end)
      events;
    let unspanned = List.rev !unspanned in
    let span_of k =
      let evs = List.rev !(Hashtbl.find spans k) in
      let first_round =
        List.fold_left (fun acc e -> min acc e.j_round) max_int evs
      in
      let last_round = List.fold_left (fun acc e -> max acc e.j_round) 0 evs in
      let complete = List.exists (fun e -> completes e.j_ev) evs in
      (k, first_round, last_round, complete, evs)
    in
    let spans_l =
      List.map span_of !span_keys
      |> List.sort (fun ((u1, s1), f1, _, _, _) ((u2, s2), f2, _, _, _) ->
             compare (f1, u1, s1) (f2, u2, s2))
    in
    let n_spans = List.length spans_l in
    let n_complete =
      List.length (List.filter (fun (_, _, _, c, _) -> c) spans_l)
    in
    let orphans_l = List.filter (fun (_, _, _, c, _) -> not c) spans_l in
    let rounds =
      List.map (fun e -> e.j_round) unspanned
      @ List.map (fun (_, f, _, _, _) -> f) spans_l
      |> List.sort_uniq Int.compare
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "tcvs-trace-join/1\n";
    Buffer.add_string buf
      (Printf.sprintf "events: %d joined, %d duplicate, %d malformed\n"
         (List.length events) !dup !bad);
    Buffer.add_string buf
      (Printf.sprintf "spans: %d total, %d complete, %d orphaned\n" n_spans n_complete
         (n_spans - n_complete));
    List.iter
      (fun round ->
        Buffer.add_string buf (Printf.sprintf "\n== round %d\n" round);
        List.iter
          (fun e ->
            if e.j_round = round then begin
              Buffer.add_string buf
                (Printf.sprintf "  [%s/%d] %s \"%s\"" e.j_proc e.j_n e.j_ev e.j_detail);
              if e.j_dur_us >= 0 then
                Buffer.add_string buf (Printf.sprintf " dur_us=%d" e.j_dur_us);
              Buffer.add_char buf '\n'
            end)
          unspanned;
        List.iter
          (fun ((u, sp), first, last, complete, evs) ->
            if first = round then begin
              if complete then
                Buffer.add_string buf
                  (Printf.sprintf "  span u%d#%d complete (rounds %d-%d)\n" u sp first last)
              else begin
                let last_ev = List.nth evs (List.length evs - 1) in
                Buffer.add_string buf
                  (Printf.sprintf "  span u%d#%d ORPHANED (rounds %d-%d, last: %s)\n" u sp
                     first last last_ev.j_ev)
              end;
              List.iter (render_event buf) evs
            end)
          spans_l)
      rounds;
    if orphans_l <> [] then begin
      Buffer.add_string buf "\norphaned:";
      List.iter
        (fun ((u, sp), _, _, _, _) -> Buffer.add_string buf (Printf.sprintf " u%d#%d" u sp))
        orphans_l;
      Buffer.add_char buf '\n'
    end;
    ( Buffer.contents buf,
      {
        events = List.length events;
        duplicates = !dup;
        malformed = !bad;
        spans = n_spans;
        complete = n_complete;
        orphans = n_spans - n_complete;
      } )
end
