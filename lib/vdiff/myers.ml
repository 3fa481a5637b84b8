type line_op = Keep of string | Del of string | Add of string

let split_lines s = String.split_on_char '\n' s

(* Myers O(ND): forward pass records the furthest-reaching x per
   diagonal k for each edit distance d; the backtrack walks the trace
   from (n, m) to (0, 0) emitting the script in reverse. *)
let diff_lines old_lines new_lines =
  let a = Array.of_list old_lines and b = Array.of_list new_lines in
  let n = Array.length a and m = Array.length b in
  if n = 0 && m = 0 then []
  else begin
    let max_d = n + m in
    let offset = max_d in
    let v = Array.make ((2 * max_d) + 1) 0 in
    let trace = ref [] in
    let final_d = ref (-1) in
    (try
       for d = 0 to max_d do
         let k = ref (-d) in
         while !k <= d do
           let kk = !k in
           let x =
             if kk = -d || (kk <> d && v.(offset + kk - 1) < v.(offset + kk + 1)) then
               v.(offset + kk + 1)
             else v.(offset + kk - 1) + 1
           in
           let x = ref x in
           let y = ref (!x - kk) in
           while !x < n && !y < m && a.(!x) = b.(!y) do
             incr x;
             incr y
           done;
           v.(offset + kk) <- !x;
           if !x >= n && !y >= m then begin
             trace := Array.copy v :: !trace;
             final_d := d;
             raise Exit
           end;
           k := !k + 2
         done;
         trace := Array.copy v :: !trace
       done
     with Exit -> ());
    assert (!final_d >= 0);
    let trace = Array.of_list (List.rev !trace) in
    let script = ref [] in
    let x = ref n and y = ref m in
    for d = !final_d downto 1 do
      let vd = trace.(d - 1) in
      let k = !x - !y in
      let prev_k =
        if k = -d || (k <> d && vd.(offset + k - 1) < vd.(offset + k + 1)) then k + 1
        else k - 1
      in
      let prev_x = vd.(offset + prev_k) in
      let prev_y = prev_x - prev_k in
      (* Snake: matched lines between the edit at depth d-1 and here. *)
      while !x > prev_x && !y > prev_y do
        decr x;
        decr y;
        script := Keep a.(!x) :: !script
      done;
      if prev_k = k + 1 then begin
        (* Down move: insertion of b.(prev_y). *)
        decr y;
        script := Add b.(!y) :: !script
      end
      else begin
        decr x;
        script := Del a.(!x) :: !script
      end
    done;
    while !x > 0 && !y > 0 do
      decr x;
      decr y;
      script := Keep a.(!x) :: !script
    done;
    assert (!x = 0 && !y = 0);
    !script
  end

let diff old_s new_s = diff_lines (split_lines old_s) (split_lines new_s)
