(** Scrape-on-connect admin endpoint, shared by {!Daemon} and
    {!Router}: accept → one JSON snapshot → close, with all client
    sockets nonblocking so a slow scraper can never stall the serving
    loop. Partially-written snapshots are carried as pending writers
    across turns and reaped after a few seconds. *)

type t

val listen : port:int -> (t * int, string) result
(** Bind and listen on loopback ([port = 0] picks an ephemeral port);
    returns the endpoint and the bound port. *)

val watch : t -> snapshot:(unit -> string) -> Loop.watch
(** The listener: each accepted scrape renders [snapshot] once and
    writes as far as the socket allows at once. *)

val service : t -> unit
(** Push pending bytes on every writer (nonblocking); drops finished,
    dead and expired writers. Call once per turn. *)

val close : t -> unit
