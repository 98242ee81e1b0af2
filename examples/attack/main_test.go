package main

// Example pins the example's printed output, so a change to any code it
// runs that alters a number shows up as a test failure.
func Example() {
	main()
	// Output:
	// stream length n = 20000, Bernoulli rate p = 0.00198
	// sample size |S| = 36
	// all sampled elements are the smallest in the stream: true
	// sample median has stream rank 19 of 20000 (unattacked: ~10000)
	// prefix approximation error = 0.9982 (Theorem 1.3: > 1/2 whp)
	//
	// same attack vs Theorem 1.2-sized sampler on U = [2^20]:
	// approximation error = 0.0003 (target eps = 0.20) ok=true
}
