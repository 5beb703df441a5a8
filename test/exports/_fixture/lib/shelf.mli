val used : int
val unused : int
val tested : int
val substitute : int
val shared : int
