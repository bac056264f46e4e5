# the 3-cube: vertices are 3-bit strings, edges join strings one bit apart
8 12
0 1
0 2
0 4
1 3
1 5
2 3
2 6
3 7
4 5
4 6
5 7
6 7
