type 'a t = {
  bound : int;
  q : 'a Queue.t;
  m : Mutex.t;
  cv : Condition.t;
  mutable closed : bool;
}

let create ~depth =
  if depth < 1 then invalid_arg "Workqueue.create: depth must be >= 1";
  {
    bound = depth;
    q = Queue.create ();
    m = Mutex.create ();
    cv = Condition.create ();
    closed = false;
  }

let depth t = t.bound

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let length t = locked t (fun () -> Queue.length t.q)

let try_push t x =
  locked t (fun () ->
      if t.closed then Error `Closed
      else if Queue.length t.q >= t.bound then Error `Overloaded
      else begin
        Queue.add x t.q;
        Condition.signal t.cv;
        Ok ()
      end)

let pop t =
  locked t (fun () ->
      while Queue.is_empty t.q && not t.closed do
        Condition.wait t.cv t.m
      done;
      Queue.take_opt t.q)

let try_pop t = locked t (fun () -> Queue.take_opt t.q)

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.cv)

