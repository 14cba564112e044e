// The benchmark is its own module so the root module's build and test
// commands never compile it; it reaches the repo's packages through the
// replace below, which is why it only builds inside a full checkout.
module asap/bench

go 1.22

require asap v0.0.0

replace asap => ../
