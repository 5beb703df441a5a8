let () = assert (Shelf.tested + Shelf.substitute = 7)
