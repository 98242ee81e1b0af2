package main

// Example pins the example's printed output, so a change to any code it
// runs that alters a number shows up as a test failure.
func Example() {
	main()
	// Output:
	// S=8 shards, n=40000 routed (checkpointed at 20000: 544134-byte snapshot)
	// global KS error of union sample = 0.0096 (witness [1, 83639])
	//   shard 0: substream=4914 local KS=0.0192
	//   shard 4: substream=5000 local KS=0.0224
	// coordinator GlobalSample(200) -> 200 elements of the union stream
}
