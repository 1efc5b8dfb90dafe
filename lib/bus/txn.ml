type op = Load | Store
