type relation = Le | Ge | Eq
type direction = Maximize | Minimize

type problem = {
  direction : direction;
  c : float array;
  rows : (float array * relation * float) array;
}

type status = Optimal | Infeasible | Unbounded | Iteration_limit

type solution = {
  status : status;
  x : float array;
  objective : float;
  duals : float array;
}
