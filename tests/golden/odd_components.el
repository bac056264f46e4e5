# a triangle and a 5-cycle: n = 8 is even, both components are odd
8 8
0 1
1 2
0 2
3 4
4 5
5 6
6 7
3 7
