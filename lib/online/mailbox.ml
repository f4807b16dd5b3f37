(* A bounded multi-producer single-consumer queue over a circular
   buffer, built on a mutex and two conditions — a hosting domain's
   spawn inbox. [send] blocking while the buffer is full is the
   backpressure mechanism: a producer that outruns its consumer parks
   on [not_full] instead of growing an unbounded queue. Closing wakes
   everyone; the consumer drains what was accepted before seeing
   end-of-stream, so a successful [send] is never silently dropped. *)

type 'a t = {
  buf : 'a option array;
  mutable head : int;  (* index of the oldest element when size > 0 *)
  mutable size : int;
  mu : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Mailbox.create: need a positive capacity";
  {
    buf = Array.make capacity None;
    head = 0;
    size = 0;
    mu = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    closed = false;
  }

let send t v =
  Mutex.lock t.mu;
  while t.size = Array.length t.buf && not t.closed do
    Condition.wait t.not_full t.mu
  done;
  let accepted = not t.closed in
  if accepted then begin
    t.buf.((t.head + t.size) mod Array.length t.buf) <- Some v;
    t.size <- t.size + 1;
    Condition.signal t.not_empty
  end;
  Mutex.unlock t.mu;
  accepted

let recv t =
  Mutex.lock t.mu;
  while t.size = 0 && not t.closed do
    Condition.wait t.not_empty t.mu
  done;
  let r =
    if t.size = 0 then None (* closed and drained *)
    else begin
      let v = t.buf.(t.head) in
      t.buf.(t.head) <- None;
      t.head <- (t.head + 1) mod Array.length t.buf;
      t.size <- t.size - 1;
      Condition.signal t.not_full;
      v
    end
  in
  Mutex.unlock t.mu;
  r

let close t =
  Mutex.lock t.mu;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mu
