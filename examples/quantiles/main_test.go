package main

// Example pins the example's printed output, so a change to any code it
// runs that alters a number shows up as a test failure.
func Example() {
	main()
	// Output:
	// Corollary 1.5 reservoir size k = 87760 (eps=0.02 delta=0.05 |U|=2^20)
	//
	// quantile        exact      robust-sample                 gk                kll
	// 0.10                1            1(+0.024)            1(+0.024)            1(+0.024)
	// 0.25                5            5(+0.017)            4(-0.005)            5(+0.017)
	// 0.50               68           68(+0.000)           66(-0.002)           69(+0.002)
	// 0.75             2739         2723(-0.000)         2391(-0.007)         2677(-0.001)
	// 0.90            64011        64390(+0.000)        49835(-0.010)        62618(-0.001)
	// 0.99           771255       773259(+0.000)      1048163(+0.010)       755356(-0.001)
	//
	// merged half-stream sketches: count=100000 median=68 (rank error +0.000)
}
