let () = print_int Shelf.used
