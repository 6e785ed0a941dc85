type point = {
  p_t : float;
  p_dur : float;
  p_values : (string * float) list;
}

type t = {
  mutex : Mutex.t;
  capacity : int;
  window_s : float;
  buf : point option array;
  mutable next : int;  (* slot the next push lands in *)
  mutable len : int;
}

let create ?(capacity = 64) ?(window_s = 5.) () =
  let capacity = max 1 capacity in
  {
    mutex = Mutex.create ();
    capacity;
    window_s = (if window_s > 0. then window_s else 5.);
    buf = Array.make capacity None;
    next = 0;
    len = 0;
  }

let capacity t = t.capacity

let window_s t = t.window_s

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let push t p =
  locked t (fun () ->
      t.buf.(t.next) <- Some p;
      t.next <- (t.next + 1) mod t.capacity;
      if t.len < t.capacity then t.len <- t.len + 1)

let points t =
  locked t (fun () ->
      let first = (t.next - t.len + t.capacity) mod t.capacity in
      List.init t.len (fun i ->
          match t.buf.((first + i) mod t.capacity) with
          | Some p -> p
          | None -> assert false))

let clear t =
  locked t (fun () ->
      Array.fill t.buf 0 t.capacity None;
      t.next <- 0;
      t.len <- 0)

let merge_run = function
  | [] -> invalid_arg "Iw_ring.merge_run: empty"
  | run ->
    let last = List.nth run (List.length run - 1) in
    let dur = List.fold_left (fun a p -> a +. p.p_dur) 0. run in
    (* weight * value and weight sums per series; a point with zero
       duration still counts with a tiny weight so lone values survive *)
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun p ->
        let w = if p.p_dur > 0. then p.p_dur else 1e-9 in
        List.iter
          (fun (k, v) ->
            let wv, ws =
              match Hashtbl.find_opt tbl k with
              | Some (wv, ws) -> (wv, ws)
              | None -> (0., 0.)
            in
            Hashtbl.replace tbl k (wv +. (w *. v), ws +. w))
          p.p_values)
      run;
    let values =
      Hashtbl.fold (fun k (wv, ws) acc -> (k, wv /. ws) :: acc) tbl []
      |> List.sort compare
    in
    { p_t = last.p_t; p_dur = dur; p_values = values }

let merge_adjacent ~target pts =
  let target = max 1 target in
  let n = List.length pts in
  if n <= target then pts
  else begin
    let per = (n + target - 1) / target in
    let rec take k acc = function
      | [] -> (List.rev acc, [])
      | l when k = 0 -> (List.rev acc, l)
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let rec go l acc =
      match l with
      | [] -> List.rev acc
      | _ ->
        let run, rest = take per [] l in
        go rest (merge_run run :: acc)
    in
    go pts []
  end
