(** Run-wide observability: deterministic counters, histograms and
    span-style trace events, keyed by hierarchical scopes, snapshotted
    to a stable JSON run report.

    The paper's claims are quantitative — messages per operation, VO
    bytes, detection latency within k operations — and this module is
    where those numbers live, instead of being recomputed ad hoc inside
    each experiment. Every layer (SHA-256, the Merkle tree, the
    protocols, the simulator) registers metrics against one global
    registry; a harness run calls {!reset}, drives the system, then
    serialises the registry with {!Report.to_json}.

    Each metric is one plain mutable cell, and its handle is that cell,
    so an increment writes one field. The registry is plain module
    state with no lock: every process that links this library runs it
    on a single domain. The [domain-safety] lint rule flags this module
    as soon as two domain-spawn sites reach it.

    Determinism is the design constraint: metrics hold only counts and
    round-clock values (never wall-clock time), metric names are
    emitted sorted, and floating-point gauges are printed with a fixed
    format — so two runs with the same seed produce byte-identical
    reports. The library depends on nothing, which lets [crypto] (the
    bottom of the dependency stack) use it. *)

(** Hierarchical metric namespaces, e.g. [protocol2.u3.sync]. *)
module Scope : sig
  type t

  val root : t
  val v : string -> t
  (** A single-segment scope. *)

  val ( / ) : t -> string -> t
  (** [scope / seg] appends a segment. *)

  val name : t -> string
  (** Dot-joined path (["" ] for {!root}). *)
end

type counter
(** A monotonically growing integer, cheap enough for hash-function hot
    paths: incrementing writes one mutable field. *)

type histogram
(** Distribution summary: count, sum, min, max and power-of-two
    buckets. Values are dimensionless integers (bytes, rounds, ops). *)

val counter : ?scope:Scope.t -> ?volatile:bool -> string -> counter
(** Get-or-create the counter [scope.name] in the global registry.
    Handles stay valid across {!reset} (which only zeroes values).
    With [~volatile:true], the counter tracks physical-I/O event counts
    (flushes, fsyncs) that legitimately differ across store durability
    modes: it stays readable through {!value}, but {!Report.to_json}
    omits it so same-seed reports are byte-identical whatever the flush
    cadence.
    @raise Invalid_argument if the name is registered as another kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** [add c n] adds [n] to [c]; [incr c] adds 1. *)

val record_max : counter -> int -> unit
(** Raise the counter to [v] if [v] is larger — for values that every
    agent reports but that describe one shared quantity (e.g. completed
    sync sessions). *)

val histogram : ?scope:Scope.t -> ?volatile:bool -> string -> histogram
(** Get-or-create, like {!counter}. With [~volatile:true], the
    histogram is registered as wall-clock data: it can be read back
    through {!stats} (the store benchmark does), but {!Report.to_json}
    omits it, so real I/O latencies never perturb the byte-identical
    same-seed reports.
    @raise Invalid_argument if the name is registered as another kind. *)

val observe : histogram -> int -> unit

val set_gauge : ?scope:Scope.t -> string -> float -> unit
(** Set a derived floating-point metric (e.g. messages per operation).
    Gauges are set-only; the last write wins. *)

val set_meta : string -> string -> unit
(** Attach run metadata (protocol name, adversary, seed) to the report. *)

(** {2 Registry queries} — how experiments read their headline numbers. *)

val value : string -> int
(** Counter value by full dotted name; [0] when absent. *)

val gauge_value : string -> float option

val stats : string -> (int * int * int * int) option
(** Histogram [(count, sum, min, max)] by full name; [None] when absent
    or empty. *)

(** {2 Trace events} *)

val set_tracing : bool -> unit
(** Enable span-style event recording. Off by default (protocol runs
    exchange thousands of messages); the flag deliberately survives
    {!reset} so a CLI can arm tracing before the harness resets the
    registry. *)

val tracing : unit -> bool

module Trace : sig
  type event = {
    at : int;  (** simulator round (or other logical clock) *)
    dur : int;  (** span length in rounds; [0] for point events *)
    scope : string;
    name : string;
    detail : string;
  }

  val emit : ?scope:Scope.t -> ?dur:int -> at:int -> name:string -> string -> unit
  (** [emit ~at ~name detail] records a point event ([dur = 0]) or a
      span. No-op unless {!set_tracing}[ true] was called. *)

  val events : unit -> event list
  (** In emission order. *)
end

val reset : unit -> unit
(** Zero every registered metric, clear metadata and trace events.
    Registrations (and outstanding handles) survive; the tracing flag
    is preserved. Called by the harness at the start of every run so
    reports are run-scoped. *)

(** {2 Run reports} *)

module Report : sig
  val to_json : ?volatile:bool -> unit -> string
  (** Stable JSON snapshot of the registry: sorted names, fixed number
      formats, metrics with zero count/value omitted (so metrics
      registered by other runs in the same process never leak in).
      Trace events are included only while tracing is enabled.
      [~volatile:true] (the live admin snapshot path) also renders
      volatile wall-clock metrics; the default omits them so same-seed
      reports stay byte-identical. *)

  val write : string -> unit
  (** [write path] writes {!to_json} to [path]; ["-"] means stdout. *)

  val trace_lines : unit -> string list
  (** One JSON object per trace event — the [--trace FILE] format. *)
end

(** {2 Json} — a minimal parser for the library's own emission formats
    (reports, admin snapshots, journal lines). No external deps; not a
    general-purpose JSON library. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  val member : string -> t -> t option
  (** Object field lookup; [None] on missing key or non-object. *)
end

(** {2 Journal} — per-process JSONL span journals.

    Each line is a flat object:
    [{"proc":P,"n":N,"round":R,"user":U,"span":S,"ev":E,"detail":D,"dur_us":T}]
    where [n] is a per-process monotone sequence number (intra-process
    order without a wall clock), [user]/[span] identify the originating
    op ([span] ids are per-user sequence numbers, so the pair is the
    op's identity; both omitted for process-level events) and [dur_us]
    is an optional wall-clock duration. Lines are flushed eagerly so a
    killed process leaves a usable journal. *)
module Journal : sig
  type t

  val open_ : proc:string -> string -> t
  (** [open_ ~proc path] truncates/creates [path]; [proc] labels every
      line (e.g. ["client-2"], ["proxy"], ["daemon"]). *)

  val event :
    t -> ?user:int -> ?span:int -> ?dur_us:int -> round:int -> ev:string -> string -> unit
  (** [event t ~round ~ev detail] appends one line. Negative [user]/
      [span]/[dur_us] are treated as absent. *)

  val close : t -> unit
end

(** {2 Trace_join} — merge per-process journals into one timeline. *)
module Trace_join : sig
  type summary = {
    events : int;  (** distinct well-formed events joined *)
    duplicates : int;  (** exact duplicate lines dropped *)
    malformed : int;  (** unparseable lines skipped (torn tails) *)
    spans : int;
    complete : int;  (** spans that reached a [client.reply] event *)
    orphans : int;  (** spans with no reply — lost or still in flight *)
  }

  val join : string list -> string * summary
  (** [join lines] renders a deterministic round-ordered timeline from
      journal lines (any number of files, concatenated in any order):
      per round, process-level events then spans grouped by origin
      [(user, span id)] and ordered along the op's logical life
      (client queue → proxy fault plane → daemon dispatch → store
      flush → reply). Orphaned spans are marked in place and listed at
      the end. Output depends only on the set of distinct well-formed
      input lines. *)
end
