type t = Server | User of int

let equal a b = a = b
let to_string = function
  | Server -> "server"
  | User i -> Printf.sprintf "user-%d" i

let pp fmt t = Format.pp_print_string fmt (to_string t)
