let agent base =
  let handle ~round ~src msg =
    match (src, msg) with
    | Sim.Id.Server, Message.Response { answer; vo; _ } -> (
        match User_base.in_flight_op base with
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
            User_base.complete base ~round ~answer ?roots ())
    | _, _ -> ()
  in
  let tick ~round =
    User_base.check_timeout base ~round;
    if not (User_base.terminated base) then ignore (User_base.issue base ~round ~piggyback:[])
  in
  { User_base.base; handle; tick }
