type user_id = int
type t = { table : (user_id, Signer.verifier) Hashtbl.t }

let create () = { table = Hashtbl.create 16 }

let register t user verifier =
  if Hashtbl.mem t.table user then
    invalid_arg (Printf.sprintf "Keyring.register: user %d already registered" user);
  Hashtbl.add t.table user verifier

let find t user = Hashtbl.find_opt t.table user

let verify t user msg ~signature =
  match find t user with
  | None -> false
  | Some verifier -> Signer.verify verifier msg ~signature

let setup ~scheme ~users rng =
  let ring = create () in
  let signers =
    Array.init users (fun id ->
        let rng = Crypto.Prng.split rng ~label:(Printf.sprintf "user-%d-keys" id) in
        let signer, verifier = Signer.generate scheme rng in
        register ring id verifier;
        signer)
  in
  (ring, signers)
