type t = { base : User_base.t }

let base t = t.base

let create ~user ~engine ~trace =
  let t = { base = User_base.create ~user ~engine ~trace } in
  let on_message ~round ~src msg =
    match (src, msg) with
    | Sim.Id.Server, Message.Response { answer; vo; _ } -> (
        match User_base.in_flight_op t.base with
        | None -> ()
        | Some op ->
            (* Replay the VO purely to record the claimed state
               transition for the ground-truth oracle; an unverified
               user acts on none of it. *)
            let roots =
              match User_base.replay vo op with
              | Ok { old_root; new_root; _ } -> Some (old_root, new_root)
              | Error _ -> None
            in
            User_base.complete t.base ~round ~answer ?roots ())
    | _, _ -> ()
  in
  let on_activate ~round =
    User_base.check_timeout t.base ~round;
    if not (User_base.terminated t.base) then
      ignore (User_base.issue t.base ~round ~piggyback:[])
  in
  Sim.Engine.register engine (Sim.Id.User user) { on_message; on_activate };
  t
