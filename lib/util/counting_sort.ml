let pass ~(count : int array) ~(key : int array) (src : int array) (dst : int array) k =
  let buckets = Array.length count in
  Array.fill count 0 buckets 0;
  for s = 0 to k - 1 do
    let c = key.(src.(s)) + 1 in
    count.(c) <- count.(c) + 1
  done;
  for c = 1 to buckets - 1 do
    count.(c) <- count.(c) + count.(c - 1)
  done;
  (* Ascending scan into ascending fill positions: stable. *)
  for s = 0 to k - 1 do
    let x = src.(s) in
    let c = key.(x) in
    dst.(count.(c)) <- x;
    count.(c) <- count.(c) + 1
  done
