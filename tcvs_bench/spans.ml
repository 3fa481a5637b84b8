(* In-memory span recorder. A span has a name, start and end
   (monotonic ns), a parent span (-1 for a root) and the op it belongs
   to as (conn, seq). Spans stay in flat int arrays while a run
   measures and are written out as JSONL when it ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  proc : string;
  mutable names : string array;  (** interned span names *)
  mutable data : int array;  (** [stride] ints per span *)
  mutable len : int;
}

let stride = 6 (* name, parent, conn, seq, start, stop *)

let create ~proc = { proc; names = [||]; data = Array.make (4096 * stride) 0; len = 0 }

let intern t name =
  let rec find i =
    if i = Array.length t.names then begin
      t.names <- Array.append t.names [| name |];
      i
    end
    else if String.equal t.names.(i) name then i
    else find (i + 1)
  in
  find 0

(* Returns the span's id, for children to name as parent and for
   [finish] when the end is not known yet. *)
let add t ~name ~parent ~conn ~seq ~start ~stop =
  if (t.len + 1) * stride > Array.length t.data then begin
    let bigger = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 bigger 0 (t.len * stride);
    t.data <- bigger
  end;
  let b = t.len * stride in
  t.data.(b) <- intern t name;
  t.data.(b + 1) <- parent;
  t.data.(b + 2) <- conn;
  t.data.(b + 3) <- seq;
  t.data.(b + 4) <- start;
  t.data.(b + 5) <- stop;
  t.len <- t.len + 1;
  t.len - 1

let finish t id ~stop = t.data.((id * stride) + 5) <- stop

let duration t i = t.data.((i * stride) + 5) - t.data.((i * stride) + 4)
let name t i = t.names.(t.data.(i * stride))
let parent t i = t.data.((i * stride) + 1)

(* Self time = duration minus the time its child spans cover. Children
   here never overlap (one thread, sequential calls), so covered time
   is the sum of their durations. *)
let self_times t =
  let self = Array.init t.len (duration t) in
  for i = 0 to t.len - 1 do
    let p = parent t i in
    if p >= 0 then self.(p) <- self.(p) - duration t i
  done;
  self

(* Per name: self times in µs, in span order. *)
let self_us_by_name t =
  let self = self_times t in
  let tbl = Hashtbl.create 8 in
  for i = t.len - 1 downto 0 do
    let n = name t i in
    let prev = Option.value ~default:[] (Hashtbl.find_opt tbl n) in
    Hashtbl.replace tbl n ((float_of_int self.(i) /. 1e3) :: prev)
  done;
  tbl

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let mean_of by_name name = mean (Option.value ~default:[] (Hashtbl.find_opt by_name name))

(* Per root span: the summed self time of its children (of those
   named in [only], when given), in µs. *)
let child_work_us ?only t =
  let work = Hashtbl.create 1024 in
  let self = self_times t in
  for i = 0 to t.len - 1 do
    let p = parent t i in
    if p >= 0 && Option.fold ~none:true ~some:(List.mem (name t i)) only then
      Hashtbl.replace work p (self.(i) + Option.value ~default:0 (Hashtbl.find_opt work p))
  done;
  Hashtbl.fold (fun _ ns acc -> (float_of_int ns /. 1e3) :: acc) work []

(* At most [limit] spans are written; aggregates above use them all. *)
let write_jsonl t oc ~limit =
  for i = 0 to min t.len limit - 1 do
    let b = i * stride in
    Printf.fprintf oc
      "{\"proc\":%S,\"id\":%d,\"name\":%S,\"parent\":%s,\"op\":[%d,%d],\"start_ns\":%d,\"end_ns\":%d}\n"
      t.proc i (name t i)
      (if t.data.(b + 1) < 0 then "null" else string_of_int t.data.(b + 1))
      t.data.(b + 2) t.data.(b + 3) t.data.(b + 4) t.data.(b + 5)
  done
