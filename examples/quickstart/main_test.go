package main

// Example pins the example's printed output, so a change to any code it
// runs that alters a number shows up as a test failure.
func Example() {
	main()
	// Output:
	// robust reservoir size k = 15330 (Theorem 1.2)
	// sample size |S| = 15330
	// exact approximation error = 0.0046 (target eps = 0.05)
	// worst range = [1, 54841]
	// sample IS an eps-approximation of the stream ✓
	// snapshot: 122702 bytes (Restore resumes bit-identically)
}
