module Path_map = Map.Make (String)

type file_state = {
  base_revision : int;
  base_content : string;
  local_content : string;
}

type t = file_state Path_map.t

let empty = Path_map.empty
let checkout t ~path history =
  let content = File_history.head_content history in
  Path_map.add path
    {
      base_revision = File_history.head_revision history;
      base_content = content;
      local_content = content;
    }
    t

let edit t ~path ~content =
  match Path_map.find_opt path t with
  | None -> raise Not_found
  | Some st -> Path_map.add path { st with local_content = content } t

let find t path = Path_map.find_opt path t

type update_result =
  | Updated of t
  | Conflict of { path : string; reason : string }

let update t ~path history =
  match Path_map.find_opt path t with
  | None -> Updated (checkout t ~path history)
  | Some st ->
      let head = File_history.head_revision history in
      if head = st.base_revision then Updated t
      else begin
        match File_history.content_at history st.base_revision with
        | Error reason -> Conflict { path; reason }
        | Ok base_now ->
            if base_now <> st.base_content then
              Conflict { path; reason = "base revision content diverged" }
            else begin
              let upstream =
                Vdiff.Patch.make ~old_:st.base_content ~new_:(File_history.head_content history)
              in
              if st.local_content = st.base_content then
                Updated (checkout t ~path history)
              else begin
                match Vdiff.Patch.apply upstream st.local_content with
                | Ok merged ->
                    Updated
                      (Path_map.add path
                         {
                           base_revision = head;
                           base_content = File_history.head_content history;
                           local_content = merged;
                         }
                         t)
                | Error reason ->
                    Conflict
                      { path; reason = "merge does not apply cleanly: " ^ reason }
              end
            end
      end

let commit_content t ~path =
  Option.map (fun st -> st.local_content) (Path_map.find_opt path t)
