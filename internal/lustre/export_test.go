package lustre

// Test-only exports for the external golden test, which imports packages
// (steering) that themselves import lustre.
var GenModel = genModel

const Fig1Lustre = fig1Lustre
