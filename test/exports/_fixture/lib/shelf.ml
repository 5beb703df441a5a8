let used = 1
let unused = used + 1
let tested = 3
let substitute = 4
let shared = 5
